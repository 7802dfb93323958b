// Named metrics for the simulator: counters, gauges and fixed-bucket
// histograms (moments via sim::Accumulator), exported as a deterministic
// JSON snapshot.
//
// Naming convention: "<subsystem>.<metric>[_<unit>]", lower_snake case,
// e.g. "introspect.bytes_scanned", "attack.staleness_s". Counters count
// events, gauges carry last-written values (engine self-metrics), and
// histograms record distributions (probe staleness, switch durations).
//
// Components emit through SATIN_METRIC_* macros; with no registry
// installed a macro is one pointer test, and -DSATIN_ENABLE_OBS=OFF
// compiles the macros out entirely. Each macro call site interns its
// name once into a process-wide table (a function-local static handle),
// so recording indexes a per-registry slot vector instead of looking the
// name up. Names must therefore be string literals — a runtime-chosen
// name would pin whichever value the site saw first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/digest.h"
#include "sim/stats.h"

namespace satin::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

  // Volatile gauges carry host-dependent values (wall clock, allocator
  // high-water marks) that are NOT part of the bit-identity contract.
  // Stable snapshots (--metrics-stable, to_json(false)) omit them so CI
  // identity gates can diff snapshots verbatim instead of sed-ing out
  // known-noisy names.
  void mark_volatile() { volatile_ = true; }
  bool is_volatile() const { return volatile_; }

 private:
  double value_ = 0.0;
  bool volatile_ = false;
};

// Fixed upper-bound buckets plus an implicit +inf overflow bucket;
// moments (count/mean/min/max/stddev) ride on sim::Accumulator.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // counts()[i] holds observations <= upper_bounds()[i] (and greater than
  // the previous bound); counts().back() is the overflow bucket.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const sim::Accumulator& moments() const { return acc_; }

  // Adds another histogram's bucket counts and moments into this one;
  // the bucket bounds must match exactly (throws otherwise).
  void merge_from(const Histogram& other);

  // Exact-state restore for binary (de)serialization; `counts` must have
  // upper_bounds().size() + 1 entries (throws otherwise).
  void restore(const std::vector<std::uint64_t>& counts,
               const sim::Accumulator::State& moments);

  // Decade buckets 1e-9 .. 1e3 with a x3 midpoint each — wide enough for
  // every timescale the paper touches (ns hash steps to quarter-hour runs).
  static std::vector<double> default_time_buckets();

 private:
  std::vector<double> bounds_;   // strictly increasing
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  sim::Accumulator acc_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kDigest };

// Interned (kind, name) pair. Indices are dense from 0 in first-intern
// order, shared by every registry and thread, and stable for the process
// lifetime. Interning creates no metric: a registry fills a handle's slot
// on the first record through it, so a handle that never records leaves
// no snapshot entry.
template <MetricKind K>
struct MetricHandle {
  std::uint32_t index;
};
using CounterHandle = MetricHandle<MetricKind::kCounter>;
using GaugeHandle = MetricHandle<MetricKind::kGauge>;
using HistogramHandle = MetricHandle<MetricKind::kHistogram>;
using DigestHandle = MetricHandle<MetricKind::kDigest>;

// Thread-safe; takes a lock, so intern once per call site, not per event.
std::uint32_t intern_metric_index(MetricKind kind, std::string_view name);
template <MetricKind K>
MetricHandle<K> intern_metric(std::string_view name) {
  return MetricHandle<K>{intern_metric_index(K, name)};
}

class MetricsRegistry {
 public:
  // Lookup-or-create by name. References stay valid for the registry
  // lifetime (node-based map).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Creates with default_time_buckets() on first use.
  Histogram& histogram(const std::string& name);
  // Pre-registers with explicit buckets; throws if the name already exists
  // with different bounds.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);
  // Streaming quantile digest (p50/p95/p99/max); unlike histograms these
  // merge permutation-invariantly, so cross-trial aggregation is bit-exact
  // no matter how shards arrive.
  QuantileDigest& digest(const std::string& name);

  // Interned-handle lookup-or-create: the same metric the name API
  // returns for the handle's name, reached by slot index once filled.
  Counter& counter(CounterHandle h) { return slot<Counter>(h.index); }
  Gauge& gauge(GaugeHandle h) { return slot<Gauge>(h.index); }
  Histogram& histogram(HistogramHandle h) { return slot<Histogram>(h.index); }
  QuantileDigest& digest(DigestHandle h) {
    return slot<QuantileDigest>(h.index);
  }

  // Read-only lookups; null when the name was never registered.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  const QuantileDigest* find_digest(const std::string& name) const;

  // Folds another registry into this one: counters add, gauges take the
  // other's value (last merge wins), histograms add bucket counts and
  // combine moments. Histograms present in both registries must share
  // bucket bounds (throws otherwise). The TrialRunner merges per-trial
  // registries in submission order, so the folded state is bit-identical
  // for any worker count.
  void merge_from(const MetricsRegistry& other);

  // Deterministic snapshot: names sorted, stable field order, same string
  // for the same state no matter the registration order. Pass
  // include_volatile=false for the stable view (volatile gauges omitted)
  // that identity gates diff across jobs counts and cache modes.
  std::string to_json(bool include_volatile = true) const;
  bool write_json(const std::string& path,
                  bool include_volatile = true) const;

  // Exact binary snapshot ("SATNMET1", little-endian, doubles as raw bit
  // patterns): unlike to_json, a save/load round trip restores byte-exact
  // internal state, so campaign workers can persist per-trial registries
  // and the supervisor can merge them across the process boundary with
  // the same bits an in-process merge would produce. save_binary writes
  // crash-safe (temp file + rename). load_merge_binary MERGES the file
  // into this registry (merge_from semantics); load into an empty
  // registry to read verbatim. Returns false with *error set on any I/O
  // or format problem — a truncated or corrupt file never half-applies.
  bool save_binary(const std::string& path, std::string* error) const;
  bool load_merge_binary(const std::string& path, std::string* error);

 private:
  // Handle index -> metric in the maps below (map nodes never move).
  // Copies and moves start empty: the pointers belong to the source's
  // nodes, and the slow path refills a slot from the name on next use.
  struct Slots {
    std::vector<void*> ptrs;
    Slots() = default;
    Slots(const Slots&) {}
    Slots(Slots&& other) noexcept { other.ptrs.clear(); }
    Slots& operator=(const Slots&) {
      ptrs.clear();
      return *this;
    }
    Slots& operator=(Slots&& other) noexcept {
      ptrs.clear();
      other.ptrs.clear();
      return *this;
    }
  };

  template <typename T>
  T& slot(std::uint32_t index) {
    if (index < slots_.ptrs.size()) {
      if (void* p = slots_.ptrs[index]) return *static_cast<T*>(p);
    }
    return *static_cast<T*>(fill_slot(index));
  }
  // Looks the interned name up (creating the metric) and caches it.
  void* fill_slot(std::uint32_t index);

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, QuantileDigest> digests_;
  Slots slots_;
};

// Per-thread registry the macros emit into; null disables metrics. The
// slot is thread-local so parallel trial workers each write into their
// own registry (installed by sim::TrialRunner around every trial) while
// the main thread keeps the session-wide one — no locks on the hot path.
inline MetricsRegistry*& metrics_slot() {
  thread_local MetricsRegistry* registry = nullptr;
  return registry;
}
inline MetricsRegistry* metrics() { return metrics_slot(); }
inline void install_metrics(MetricsRegistry* registry) {
  metrics_slot() = registry;
}

}  // namespace satin::obs

#ifndef SATIN_OBS_ENABLED
#define SATIN_OBS_ENABLED 1
#endif

#if SATIN_OBS_ENABLED

// `"" name ""` only compiles for a string literal (or literal-yielding
// macro): a site's handle is interned once, so its name must be fixed.
#define SATIN_OBS_METRIC_(kind, accessor, name, ...)                        \
  do {                                                                     \
    if (auto* satin_obs_m_ = ::satin::obs::metrics()) {                    \
      static const auto satin_obs_h_ =                                     \
          ::satin::obs::intern_metric<::satin::obs::MetricKind::kind>(     \
              "" name "");                                                 \
      satin_obs_m_->accessor(satin_obs_h_).__VA_ARGS__;                    \
    }                                                                      \
  } while (0)

#define SATIN_METRIC_INC(name) SATIN_OBS_METRIC_(kCounter, counter, name, inc())

#define SATIN_METRIC_ADD(name, delta)             \
  SATIN_OBS_METRIC_(kCounter, counter, name,      \
                    inc(static_cast<std::uint64_t>(delta)))

#define SATIN_METRIC_GAUGE_SET(name, value) \
  SATIN_OBS_METRIC_(kGauge, gauge, name, set(static_cast<double>(value)))

#define SATIN_METRIC_OBSERVE(name, value)           \
  SATIN_OBS_METRIC_(kHistogram, histogram, name,    \
                    observe(static_cast<double>(value)))

#define SATIN_METRIC_DIGEST_OBSERVE(name, value) \
  SATIN_OBS_METRIC_(kDigest, digest, name, observe(static_cast<double>(value)))

#else  // !SATIN_OBS_ENABLED

#define SATIN_METRIC_INC(name) ((void)0)
#define SATIN_METRIC_ADD(name, delta) ((void)0)
#define SATIN_METRIC_GAUGE_SET(name, value) ((void)0)
#define SATIN_METRIC_OBSERVE(name, value) ((void)0)
#define SATIN_METRIC_DIGEST_OBSERVE(name, value) ((void)0)

#endif  // SATIN_OBS_ENABLED
