// Interned metric handles: SATIN_METRIC_* call sites intern their name
// once and record through a per-registry slot. These tests pin that the
// handle path is unobservable — every snapshot (to_json and SATNMET1) is
// byte-identical to recording the same events through the name API.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "sim/parallel.h"

namespace satin::obs {
namespace {

// One event sequence, parameterized by `n`, emitted through the macros
// into whatever registry this thread has installed...
void record_with_macros(int n) {
  for (int i = 0; i < n; ++i) {
    SATIN_METRIC_INC("handle_test.events");
    SATIN_METRIC_ADD("handle_test.bytes", 3 * i + 1);
    SATIN_METRIC_GAUGE_SET("handle_test.last", i * 0.5);
    SATIN_METRIC_OBSERVE("handle_test.latency_s", 1e-6 * (i + 1));
    SATIN_METRIC_DIGEST_OBSERVE("handle_test.depth", (i * 7) % 13);
    if (i % 3 == 0) SATIN_METRIC_INC("handle_test.every_third");
  }
}

// ...and the same sequence through the name API.
void record_with_names(MetricsRegistry& r, int n) {
  for (int i = 0; i < n; ++i) {
    r.counter("handle_test.events").inc();
    r.counter("handle_test.bytes").inc(static_cast<std::uint64_t>(3 * i + 1));
    r.gauge("handle_test.last").set(i * 0.5);
    r.histogram("handle_test.latency_s").observe(1e-6 * (i + 1));
    r.digest("handle_test.depth").observe(static_cast<double>((i * 7) % 13));
    if (i % 3 == 0) r.counter("handle_test.every_third").inc();
  }
}

std::string binary_snapshot(const MetricsRegistry& r, const std::string& tag) {
  const std::string path = testing::TempDir() + "metric_handle_" + tag + ".bin";
  std::string error;
  EXPECT_TRUE(r.save_binary(path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

void expect_identical(const MetricsRegistry& macros,
                      const MetricsRegistry& names, const std::string& tag) {
  EXPECT_EQ(macros.to_json(), names.to_json()) << tag;
  EXPECT_EQ(binary_snapshot(macros, tag + "_m"),
            binary_snapshot(names, tag + "_n"))
      << tag;
}

class MetricHandle : public testing::Test {
 protected:
  void SetUp() override {
#if !SATIN_OBS_ENABLED
    GTEST_SKIP() << "SATIN_METRIC_* compiled out (SATIN_ENABLE_OBS=OFF)";
#endif
  }
};

TEST_F(MetricHandle, MacroRecordingMatchesNameApi) {
  MetricsRegistry macros;
  install_metrics(&macros);
  record_with_macros(50);
  install_metrics(nullptr);
  MetricsRegistry names;
  record_with_names(names, 50);
  expect_identical(macros, names, "basic");
  // Recording without a registry is a no-op, not a crash.
  record_with_macros(5);
}

TEST_F(MetricHandle, SequentialRegistriesOnOneThreadStayIndependent) {
  // Destroy and re-create in the same storage: the second registry has
  // the first one's address, so a handle cache keyed on anything but the
  // registry's own slots would hand it the dead registry's metrics.
  std::optional<MetricsRegistry> slot;
  for (int round = 0; round < 3; ++round) {
    slot.emplace();
    install_metrics(&*slot);
    record_with_macros(10 + round * 7);
    install_metrics(nullptr);
    MetricsRegistry names;
    record_with_names(names, 10 + round * 7);
    expect_identical(*slot, names, "reuse" + std::to_string(round));
  }
  // Two live registries installed one after the other.
  MetricsRegistry a, b;
  install_metrics(&a);
  record_with_macros(4);
  install_metrics(&b);
  record_with_macros(9);
  install_metrics(&a);
  record_with_macros(2);
  install_metrics(nullptr);
  MetricsRegistry names_a, names_b;
  record_with_names(names_a, 4);
  record_with_names(names_a, 2);
  record_with_names(names_b, 9);
  expect_identical(a, names_a, "live_a");
  expect_identical(b, names_b, "live_b");
}

TEST_F(MetricHandle, CopiedAndMovedRegistriesRecordIntoThemselves) {
  MetricsRegistry original;
  install_metrics(&original);
  record_with_macros(6);
  MetricsRegistry copy = original;
  install_metrics(&copy);
  record_with_macros(6);
  MetricsRegistry moved = std::move(copy);
  install_metrics(&moved);
  record_with_macros(6);
  install_metrics(nullptr);
  MetricsRegistry six, eighteen;
  record_with_names(six, 6);
  for (int k = 0; k < 3; ++k) record_with_names(eighteen, 6);
  expect_identical(original, six, "original");
  expect_identical(moved, eighteen, "moved");
}

MetricsRegistry run_trials(int jobs) {
  MetricsRegistry merged;
  install_metrics(&merged);
  sim::TrialRunnerOptions options;
  options.jobs = jobs;
  sim::TrialRunner runner(options);
  runner.run(16, [](const sim::TrialContext& ctx) {
    record_with_macros(static_cast<int>(ctx.index % 5) + 1);
  });
  install_metrics(nullptr);
  return merged;
}

TEST_F(MetricHandle, PerTrialRegistriesMergeIdenticallyAcrossJobs) {
  const MetricsRegistry serial = run_trials(1);
  const MetricsRegistry parallel = run_trials(4);
  // Reference: per-trial name-API registries merged in submission order.
  MetricsRegistry names;
  for (int i = 0; i < 16; ++i) {
    MetricsRegistry trial;
    record_with_names(trial, i % 5 + 1);
    names.merge_from(trial);
  }
  expect_identical(serial, names, "jobs1");
  expect_identical(parallel, names, "jobs4");
}

TEST_F(MetricHandle, InternedButNeverRecordedLeavesNoEntry) {
  const auto never = intern_metric<MetricKind::kCounter>("handle_test.never");
  // Interning is idempotent per (kind, name) and distinct across kinds.
  EXPECT_EQ(never.index,
            intern_metric<MetricKind::kCounter>("handle_test.never").index);
  EXPECT_NE(never.index,
            intern_metric<MetricKind::kGauge>("handle_test.never").index);
  MetricsRegistry r;
  install_metrics(&r);
  record_with_macros(3);
  install_metrics(nullptr);
  EXPECT_EQ(r.find_counter("handle_test.never"), nullptr);
  EXPECT_EQ(r.find_gauge("handle_test.never"), nullptr);
  EXPECT_EQ(r.to_json().find("never"), std::string::npos);
  MetricsRegistry names;
  record_with_names(names, 3);
  expect_identical(r, names, "never");
  // Recording through the handle later creates exactly that metric.
  r.counter(never).inc(2);
  ASSERT_NE(r.find_counter("handle_test.never"), nullptr);
  EXPECT_EQ(r.find_counter("handle_test.never")->value(), 2u);
}

TEST_F(MetricHandle, HandleReachesTheSameMetricAsTheName) {
  MetricsRegistry r;
  // Created by name first (explicit buckets), then reached by handle.
  r.histogram("handle_test.custom", {1.0, 2.0}).observe(1.5);
  const auto h = intern_metric<MetricKind::kHistogram>("handle_test.custom");
  r.histogram(h).observe(0.5);
  EXPECT_EQ(&r.histogram(h), r.find_histogram("handle_test.custom"));
  EXPECT_EQ(r.find_histogram("handle_test.custom")->moments().count(), 2u);
  EXPECT_EQ(r.find_histogram("handle_test.custom")->upper_bounds().size(), 2u);
}

}  // namespace
}  // namespace satin::obs
