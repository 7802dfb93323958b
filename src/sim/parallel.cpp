#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "sim/shard.h"

namespace satin::sim {

TrialObsScope::TrialObsScope(obs::MetricsRegistry* metrics,
                             obs::TraceRecorder* tracer,
                             obs::FlightRecorder* flight)
    : prev_metrics_(obs::metrics()),
      prev_tracer_(obs::tracer()),
      prev_flight_(obs::flight()) {
  obs::install_metrics(metrics);
  obs::install_tracer(tracer);
  obs::install_flight(flight);
}

TrialObsScope::~TrialObsScope() {
  obs::install_metrics(prev_metrics_);
  obs::install_tracer(prev_tracer_);
  obs::install_flight(prev_flight_);
}

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : options_(options), seeds_(options.root_seed) {}

int TrialRunner::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int TrialRunner::jobs_for(std::size_t trials) const {
  int jobs = options_.jobs > 0 ? options_.jobs : hardware_jobs();
  if (static_cast<std::size_t>(jobs) > trials) {
    jobs = static_cast<int>(trials);
  }
  return jobs < 1 ? 1 : jobs;
}

double TrialRunner::trials_per_second() const {
  return wall_seconds_ > 0.0
             ? static_cast<double>(trials_run_) / wall_seconds_
             : 0.0;
}

namespace {

// The calling thread's sinks decide whether trials record at all; the
// per-trial instances exist so workers never contend on one registry and
// so the merged state is independent of completion order — shared
// verbatim between run() and run_sharded(), which is what makes their
// outputs byte-identical to each other.
struct PerTrialSinks {
  obs::MetricsRegistry* parent_metrics = obs::metrics();
  obs::TraceRecorder* parent_tracer = obs::tracer();
  obs::FlightRecorder* parent_flight = obs::flight();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
  std::vector<std::unique_ptr<obs::TraceRecorder>> tracers;
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights;

  PerTrialSinks(std::size_t trials, const TrialRunnerOptions& options)
      : metrics(trials), tracers(trials), flights(trials) {
    for (std::size_t i = 0; i < trials; ++i) {
      if (parent_metrics != nullptr) {
        metrics[i] = std::make_unique<obs::MetricsRegistry>();
      }
      if (parent_tracer != nullptr) {
        tracers[i] = std::make_unique<obs::TraceRecorder>(options.trace_capacity);
      }
      if (parent_flight != nullptr) {
        obs::FlightRecorder::Options fopts;
        fopts.ring = options.flight_ring;  // in-memory; no path, no spill
        flights[i] = std::make_unique<obs::FlightRecorder>(fopts);
      }
    }
  }

  // Merge in submission order, on the calling thread, after every trial
  // has settled — the one place all execution paths reconverge.
  void merge(const TrialSeedSeq& seeds) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i] != nullptr) parent_metrics->merge_from(*metrics[i]);
      if (tracers[i] != nullptr) parent_tracer->append_from(*tracers[i]);
      if (flights[i] != nullptr) {
        // The trial-begin marker is emitted here, by the parent, rather
        // than inside the trial: in ring mode it would be the trial's
        // OLDEST record and the first one overwritten, losing the
        // stream's trial boundaries exactly when the auditor needs them.
        parent_flight->record(obs::FlightKind::kTrialBegin, Time::zero(),
                              static_cast<std::uint64_t>(i),
                              static_cast<int>(i), seeds.seed_for(i));
        parent_flight->append_from(*flights[i]);
      }
    }
  }
};

// Fixed-size pool over `units` work items; a shared atomic cursor
// load-balances uneven items (duel lengths vary a lot). Claim order is
// racy, but nothing reads it: every output is keyed by the unit index.
void run_pool(int jobs, std::size_t units,
              const std::function<void(std::size_t)>& work) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < units; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= units) return;
        work(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

// One shard's lockstep core: runs `count` trials to completion on the
// calling thread under one ShardContext (immutable kernel image +
// pristine digest base shared by the shard-mates): construct via
// make_slot, advance in quantum rounds (fused lanes via merged-frontier
// engine bursts, stragglers via advance()), finish in slot order as each
// turns done. `with_sinks(slot, fn)` runs fn under the slot's obs sinks;
// `on_error(slot, error)` is invoked at most once per slot, after which
// the slot's trial has been destroyed and its shard-mates continue.
void run_lockstep_shard(
    std::size_t count, Duration quantum,
    const std::function<std::unique_ptr<LockstepTrial>(std::size_t)>&
        make_slot,
    const std::function<void(std::size_t, const std::function<void()>&)>&
        with_sinks,
    const std::function<void(std::size_t, std::exception_ptr)>& on_error) {
  // Shard-slot arrays — the per-trial state walked in lockstep.
  std::vector<std::unique_ptr<LockstepTrial>> live(count);
  std::vector<Engine*> engines(count, nullptr);
  std::size_t remaining = 0;

  ShardContext context;
  ShardContext::Scope context_scope(context);

  for (std::size_t j = 0; j < count; ++j) {
    with_sinks(j, [&] {
      try {
        live[j] = make_slot(j);
        if (live[j] != nullptr) {
          ++remaining;
          engines[j] = live[j]->fused_engine();
        }
      } catch (...) {
        live[j].reset();
        on_error(j, std::current_exception());
      }
    });
  }

  // A lane's burst window: long enough that peek/run_until bookkeeping
  // stays far off the profile, short enough that lanes genuinely
  // interleave through the merged event frontier within each quantum.
  Duration slice = Duration::from_ps(quantum.ps() / 4);
  if (slice <= Duration::zero()) slice = Duration::from_ps(1);

  std::vector<Time> target(count);
  std::vector<Time> frontier(count);
  std::vector<unsigned char> advancing(count, 0);

  const auto drop = [&](std::size_t j) {
    live[j].reset();
    engines[j] = nullptr;
    --remaining;
    on_error(j, std::current_exception());
  };

  while (remaining > 0) {
    // Phase 1 — fused lanes: each live not-yet-done lane owes one quantum
    // this round. Advance them through a merged schedule keyed by
    // (next event time, slot): always burst the lane whose engine holds
    // the globally earliest pending event, so the shard's K timer wheels
    // drain as one interleaved frontier. Identity-inert versus one
    // advance(quantum) per lane: run_until slicing and deadline-bounded
    // peeks do exactly the settles a scalar run performs (sim/engine.h).
    std::size_t active = 0;
    for (std::size_t j = 0; j < count; ++j) {
      advancing[j] = 0;
      if (live[j] == nullptr || engines[j] == nullptr) continue;
      with_sinks(j, [&] {
        try {
          if (!live[j]->done()) {
            target[j] = engines[j]->now() + quantum;
            frontier[j] = engines[j]->next_event_time(target[j]);
            advancing[j] = 1;
            ++active;
          }
        } catch (...) {
          drop(j);
        }
      });
    }
    while (active > 0) {
      std::size_t pick = count;
      Time best = Time::max();
      for (std::size_t j = 0; j < count; ++j) {
        if (advancing[j] && (pick == count || frontier[j] < best)) {
          pick = j;
          best = frontier[j];
        }
      }
      with_sinks(pick, [&] {
        try {
          const Time stop = best >= target[pick]
                                ? target[pick]
                                : std::min(target[pick], best + slice);
          engines[pick]->run_until(stop);
          if (stop >= target[pick]) {
            advancing[pick] = 0;
            --active;
          } else {
            frontier[pick] = engines[pick]->next_event_time(target[pick]);
          }
        } catch (...) {
          advancing[pick] = 0;
          --active;
          drop(pick);
        }
      });
    }
    // Phase 2 — slot-order sweep: stragglers (no fused engine) take the
    // classic per-trial advance, and every lane that has turned done
    // finishes — the same done/advance/done shape as the scalar loop.
    for (std::size_t j = 0; j < count; ++j) {
      if (live[j] == nullptr) continue;
      with_sinks(j, [&] {
        try {
          if (engines[j] == nullptr && !live[j]->done()) {
            live[j]->advance(quantum);
          }
          if (live[j]->done()) {
            live[j]->finish();
            live[j].reset();  // destructors may emit obs records
            engines[j] = nullptr;
            --remaining;
          }
        } catch (...) {
          drop(j);
        }
      });
    }
  }
}

}  // namespace

void TrialRunner::run(std::size_t trials,
                      const std::function<void(const TrialContext&)>& fn) {
  if (trials == 0) return;
  const auto wall_start = std::chrono::steady_clock::now();

  PerTrialSinks sinks(trials, options_);
  std::vector<std::exception_ptr> errors(trials);

  const auto run_one = [&](std::size_t i) {
    const TrialContext ctx{i, seeds_.seed_for(i)};
    TrialObsScope scope(sinks.metrics[i].get(), sinks.tracers[i].get(),
                        sinks.flights[i].get());
    try {
      fn(ctx);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  run_pool(jobs_for(trials), trials, run_one);
  sinks.merge(seeds_);

  trials_run_ += trials;
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (std::size_t i = 0; i < trials; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

void TrialRunner::run_sharded(
    std::size_t trials, std::size_t shard_size, Duration quantum,
    const std::function<std::unique_ptr<LockstepTrial>(const TrialContext&)>&
        make) {
  if (quantum <= Duration::zero()) {
    throw std::invalid_argument("run_sharded: quantum must be positive");
  }
  if (trials == 0) return;
  if (shard_size < 1) shard_size = 1;
  const auto wall_start = std::chrono::steady_clock::now();

  PerTrialSinks sinks(trials, options_);
  std::vector<std::exception_ptr> errors(trials);
  const std::size_t shards = (trials + shard_size - 1) / shard_size;

  const auto run_shard = [&](std::size_t s) {
    const std::size_t begin = s * shard_size;
    const std::size_t count = std::min(shard_size, trials - begin);
    run_lockstep_shard(
        count, quantum,
        [&](std::size_t j) {
          const std::size_t i = begin + j;
          return make(TrialContext{i, seeds_.seed_for(i)});
        },
        [&](std::size_t j, const std::function<void()>& fn) {
          const std::size_t i = begin + j;
          TrialObsScope scope(sinks.metrics[i].get(), sinks.tracers[i].get(),
                              sinks.flights[i].get());
          fn();
        },
        [&](std::size_t j, std::exception_ptr error) {
          errors[begin + j] = std::move(error);
        });
  };

  run_pool(jobs_for(shards), shards, run_shard);
  sinks.merge(seeds_);

  trials_run_ += trials;
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (std::size_t i = 0; i < trials; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace satin::sim
