// TrialRunner: the determinism contract is the whole point — jobs=1 and
// jobs=8 must produce byte-identical merged metrics, identically ordered
// traces and identical result slots, because benches print from exactly
// this machinery. The duel-level tests at the bottom close the loop
// end-to-end: real duels run on workers that share a ShardContext must
// reproduce solo duels run with none installed, field for field.
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/experiments.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/seed_seq.h"
#include "sim/shard.h"
#include "sim/time.h"

namespace satin::sim {
namespace {

TEST(TrialSeedSeq, StatelessAndOrderIndependent) {
  TrialSeedSeq seq(1234);
  const std::uint64_t s7 = seq.seed_for(7);
  const std::uint64_t s0 = seq.seed_for(0);
  // Asking again, in any order, returns the same values.
  EXPECT_EQ(seq.seed_for(0), s0);
  EXPECT_EQ(seq.seed_for(7), s7);
  // A fresh sequence from the same root agrees.
  TrialSeedSeq again(1234);
  EXPECT_EQ(again.seed_for(0), s0);
  EXPECT_EQ(again.seed_for(7), s7);
  // Different roots and different indices decorrelate.
  TrialSeedSeq other(1235);
  EXPECT_NE(other.seed_for(0), s0);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.insert(seq.seed_for(i));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(TrialRunner, ResultsLandInSubmissionOrderSlots) {
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  const auto results = runner.run_collect(
      std::size_t{64}, [](const TrialContext& ctx) {
        return static_cast<int>(ctx.index) * 10;
      });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 10);
  }
  EXPECT_EQ(runner.trials_run(), 64u);
  EXPECT_GE(runner.wall_seconds(), 0.0);
}

TEST(TrialRunner, SeedsMatchSeedSeqForAnyJobCount) {
  for (int jobs : {1, 3, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    options.root_seed = 99;
    TrialRunner runner(options);
    const auto seeds = runner.run_collect(
        std::size_t{16},
        [](const TrialContext& ctx) { return ctx.seed; });
    TrialSeedSeq expected(99);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(seeds[i], expected.seed_for(i)) << "jobs=" << jobs;
    }
  }
}

// The per-trial workload every determinism test runs: counters keyed by
// parity, one histogram, one gauge, a couple of trace events. Values
// depend only on the trial index.
void emit_trial_obs(const TrialContext& ctx) {
  SATIN_METRIC_INC("trial.count");
  SATIN_METRIC_ADD("trial.index_sum", ctx.index);
  SATIN_METRIC_GAUGE_SET("trial.last_index", ctx.index);
  SATIN_METRIC_OBSERVE("trial.value", 1e-6 * static_cast<double>(ctx.index));
  SATIN_TRACE_INSTANT_ARG("test", "trial", sim::Time::zero(),
                          static_cast<int>(ctx.index % 4), obs::kWorldNormal,
                          "index", ctx.index);
}

std::string run_and_snapshot_metrics(int jobs, std::size_t trials) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = jobs;
  TrialRunner runner(options);
  runner.run(trials, emit_trial_obs);
  obs::install_metrics(nullptr);
  return registry.to_json();
}

TEST(TrialRunner, MetricsSnapshotsAreByteIdenticalAcrossJobCounts) {
  const std::string serial = run_and_snapshot_metrics(1, 37);
  const std::string parallel = run_and_snapshot_metrics(8, 37);
  EXPECT_EQ(serial, parallel);
#if SATIN_OBS_ENABLED
  // And the content is the deterministic fold of all trials.
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  runner.run(std::size_t{37}, emit_trial_obs);
  obs::install_metrics(nullptr);
  EXPECT_EQ(registry.counter("trial.count").value(), 37u);
  EXPECT_EQ(registry.counter("trial.index_sum").value(), 37u * 36u / 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("trial.last_index").value(), 36.0);
  EXPECT_EQ(registry.histogram("trial.value").moments().count(), 37u);
#endif
}

// Each trial runs a real pooled engine — seed-dependent mix of wheel and
// heap traffic with mid-run cancels and schedule-from-callback — and folds
// the engine's memory-model counters into the merged metrics. Those
// counters are deterministic per trial, so the merged snapshot must be
// byte-identical at any job count, exactly like the PR-3 contract for
// bench output.
void pooled_engine_trial(const TrialContext& ctx) {
  Engine engine;
  Rng rng(ctx.seed);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    // Up to 200 ms out: straddles the ~68 ms wheel horizon, so every
    // trial exercises both admission paths.
    const auto us = static_cast<std::int64_t>(rng.index(200000)) + 1;
    handles.push_back(engine.schedule_after(
        Duration::from_us(us), [&engine, &rng, &handles] {
          if (rng.bernoulli(0.5) && !handles.empty()) {
            handles[rng.index(handles.size())].cancel();
          }
          if (rng.bernoulli(0.3)) {
            handles.push_back(engine.schedule_after(
                Duration::from_us(
                    static_cast<std::int64_t>(rng.index(1000)) + 1),
                [] {}));
          }
        }));
  }
  engine.run_all();
  SATIN_METRIC_ADD("engine_trial.fired", engine.events_fired());
  SATIN_METRIC_ADD("engine_trial.pool_reuses", engine.pool_reuses());
  SATIN_METRIC_ADD("engine_trial.wheel", engine.wheel_scheduled());
  SATIN_METRIC_ADD("engine_trial.heap", engine.heap_scheduled());
  SATIN_METRIC_ADD("engine_trial.cb_inline", engine.callbacks_inline());
  SATIN_METRIC_ADD("engine_trial.cb_fallback", engine.callback_fallbacks());
}

std::string run_pooled_engine_trials(int jobs, std::size_t trials) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = jobs;
  options.root_seed = 4242;
  TrialRunner runner(options);
  runner.run(trials, pooled_engine_trial);
  obs::install_metrics(nullptr);
  return registry.to_json();
}

TEST(TrialRunner, PooledEngineCountersAreByteIdenticalAcrossJobCounts) {
  const std::string serial = run_pooled_engine_trials(1, 12);
  const std::string parallel = run_pooled_engine_trials(8, 12);
  EXPECT_EQ(serial, parallel);
#if SATIN_OBS_ENABLED
  EXPECT_NE(serial.find("engine_trial.pool_reuses"), std::string::npos);
#endif
}

TEST(TrialRunner, TraceEventsMergeInSubmissionOrder) {
  for (int jobs : {1, 8}) {
    obs::TraceRecorder recorder(1024);
    obs::install_tracer(&recorder);
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    runner.run(std::size_t{20}, emit_trial_obs);
    obs::install_tracer(nullptr);
    const auto events = recorder.snapshot();
#if SATIN_OBS_ENABLED
    ASSERT_EQ(events.size(), 20u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(events[i].arg_value, static_cast<double>(i))
          << "jobs=" << jobs;
    }
#else
    EXPECT_TRUE(events.empty());
#endif
  }
}

TEST(TrialRunner, NoSinksInstalledMeansNoObsOverheadAndNoCrash) {
  obs::install_metrics(nullptr);
  obs::install_tracer(nullptr);
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  std::atomic<int> ran{0};
  runner.run(std::size_t{8}, [&ran](const TrialContext&) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(TrialRunner, FirstExceptionBySubmissionOrderIsRethrown) {
  for (int jobs : {1, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    std::atomic<int> completed{0};
    try {
      runner.run(std::size_t{16}, [&completed](const TrialContext& ctx) {
        if (ctx.index == 11) throw std::runtime_error("trial 11 failed");
        if (ctx.index == 5) throw std::runtime_error("trial 5 failed");
        ++completed;
      });
      FAIL() << "expected a rethrown trial exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 5 failed") << "jobs=" << jobs;
    }
    // Every other trial still ran to completion before the rethrow.
    EXPECT_EQ(completed.load(), 14) << "jobs=" << jobs;
  }
}

TEST(TrialRunner, FailedTrialsStillMergeTheirPartialObs) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  EXPECT_THROW(
      runner.run(std::size_t{10},
                 [](const TrialContext& ctx) {
                   SATIN_METRIC_INC("attempted");
                   if (ctx.index == 3) throw std::runtime_error("boom");
                   SATIN_METRIC_INC("finished");
                 }),
      std::runtime_error);
  obs::install_metrics(nullptr);
#if SATIN_OBS_ENABLED
  EXPECT_EQ(registry.counter("attempted").value(), 10u);
  EXPECT_EQ(registry.counter("finished").value(), 9u);
#endif
}

TEST(TrialRunner, JobsForClampsToTrialCountAndHardware) {
  TrialRunnerOptions options;
  options.jobs = 8;
  TrialRunner runner(options);
  EXPECT_EQ(runner.jobs_for(3), 3);
  EXPECT_EQ(runner.jobs_for(100), 8);
  EXPECT_GE(TrialRunner::hardware_jobs(), 1);
  TrialRunnerOptions hw;
  hw.jobs = 0;  // auto
  TrialRunner auto_runner(hw);
  EXPECT_EQ(auto_runner.jobs_for(1000), TrialRunner::hardware_jobs());
}

TEST(TrialRunner, ZeroTrialsIsANoOp) {
  TrialRunner runner;
  bool ran = false;
  runner.run(std::size_t{0}, [&ran](const TrialContext&) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(runner.trials_run(), 0u);
}

TEST(TrialRunner, ZeroTrialsWithSinksInstalledIsStillANoOp) {
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  runner.run(std::size_t{0},
             [](const TrialContext&) { SATIN_METRIC_INC("never"); });
  obs::install_metrics(nullptr);
  EXPECT_EQ(runner.trials_run(), 0u);
  EXPECT_EQ(registry.find_counter("never"), nullptr);
}

TEST(TrialRunner, MoreJobsThanTrialsRunsEachTrialExactlyOnce) {
  TrialRunnerOptions options;
  options.jobs = 16;
  TrialRunner runner(options);
  std::array<std::atomic<int>, 3> runs{};
  runner.run(std::size_t{3}, [&runs](const TrialContext& ctx) {
    ++runs[ctx.index];
  });
  EXPECT_EQ(runner.trials_run(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialRunner, EveryTrialFailingRethrowsTheLowestIndex) {
  for (int jobs : {1, 8}) {
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    try {
      runner.run(std::size_t{6}, [](const TrialContext& ctx) {
        throw std::runtime_error("trial " + std::to_string(ctx.index));
      });
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 0") << "jobs=" << jobs;
    }
  }
}

TEST(TrialRunner, ExceptionInOneRunDoesNotPoisonTheNext) {
  TrialRunnerOptions options;
  options.jobs = 4;
  TrialRunner runner(options);
  EXPECT_THROW(runner.run(std::size_t{4},
                          [](const TrialContext& ctx) {
                            if (ctx.index == 2) {
                              throw std::runtime_error("boom");
                            }
                          }),
               std::runtime_error);
  // The runner is reusable after a failed run: fresh trials all succeed.
  std::atomic<int> ran{0};
  runner.run(std::size_t{4}, [&ran](const TrialContext&) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

// ---------------------------------------------------------------------------
// Worker-shared state: each worker holds one ShardContext for the whole
// run, so the trials it runs share the default kernel image and pristine
// digest base (sim/shard.h).

TEST(TrialRunner, EveryTrialRunsUnderItsWorkersShardContext) {
  ASSERT_EQ(ShardContext::current(), nullptr);
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::mutex mu;
    std::vector<const ShardContext*> seen;
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    runner.run(12, [&](const TrialContext&) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.push_back(ShardContext::current());
    });
    ASSERT_EQ(seen.size(), 12u);
    const std::set<const ShardContext*> distinct(seen.begin(), seen.end());
    EXPECT_EQ(distinct.count(nullptr), 0u);
    if (jobs == 1) {
      EXPECT_EQ(distinct.size(), 1u);  // one worker, one context
    } else {
      EXPECT_LE(distinct.size(), 3u);  // at most one per worker
    }
    EXPECT_EQ(ShardContext::current(), nullptr);  // nothing left installed
  }
}

// Each trial's flight recorder takes the session recorder's mode, and the
// merged chain is the same in every mode.
struct TrialFlightRun {
  std::uint64_t chain = 0;
  std::uint64_t commits = 0;
  std::vector<std::string> trial_paths;
};

TrialFlightRun run_flight_trials(const obs::FlightRecorder::Options& session,
                                 int jobs) {
  TrialFlightRun out;
  obs::FlightRecorder parent(session);
  out.trial_paths.resize(8);
  {
    TrialObsScope scope(nullptr, nullptr, &parent);
    TrialRunnerOptions options;
    options.jobs = jobs;
    TrialRunner runner(options);
    runner.run(8, [&](const TrialContext& ctx) {
      obs::FlightRecorder* trial = obs::flight();
      ASSERT_NE(trial, nullptr);
      ASSERT_NE(trial, &parent);
      EXPECT_EQ(trial->ring(), parent.ring());
      EXPECT_EQ(trial->spilling(), parent.spilling());
      out.trial_paths[ctx.index] = trial->path();
      for (std::uint64_t k = 0; k < 40 + ctx.index; ++k) {
        trial->record(obs::FlightKind::kNote, Time::from_ps(1000 * k), k,
                      static_cast<int>(ctx.index), ctx.seed ^ k);
      }
    });
  }
  EXPECT_TRUE(parent.close());
  out.chain = parent.chain_hash();
  out.commits = parent.commits();
  return out;
}

TEST(TrialRunner, TrialFlightRecordersFollowTheSessionRecordersMode) {
  const TrialFlightRun in_memory = run_flight_trials({}, 1);
  EXPECT_EQ(in_memory.commits, 8u + 8u * 40u + 28u);  // markers + records
  for (const std::string& path : in_memory.trial_paths) {
    EXPECT_TRUE(path.empty());
  }

  obs::FlightRecorder::Options ring;
  ring.ring = 1024;  // larger than the whole stream: nothing drops
  EXPECT_EQ(run_flight_trials(ring, 3).chain, in_memory.chain);

  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    obs::FlightRecorder::Options spill;
    spill.path = ::testing::TempDir() + "/trial_flight_spill_j" +
                 std::to_string(jobs) + ".flt";
    const TrialFlightRun spilled = run_flight_trials(spill, jobs);
    EXPECT_EQ(spilled.chain, in_memory.chain);
    EXPECT_EQ(spilled.commits, in_memory.commits);
    // Each trial spilled to its own file, removed after the merge along
    // with its private directory.
    const std::set<std::string> paths(spilled.trial_paths.begin(),
                                      spilled.trial_paths.end());
    EXPECT_EQ(paths.size(), spilled.trial_paths.size());
    for (const std::string& path : spilled.trial_paths) {
      ASSERT_FALSE(path.empty());
      EXPECT_FALSE(std::filesystem::exists(path)) << path;
      EXPECT_FALSE(std::filesystem::exists(
          std::filesystem::path(path).parent_path()))
          << path;
    }
    std::filesystem::remove(spill.path);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: real duels on shared workers must match solo duels. The
// oracle runs each trial as a direct run_single_duel call on the test
// thread, with no ShardContext installed, under its own metrics registry
// and in-memory flight recorder, folded in trial order with the
// kTrialBegin marker TrialRunner's merge emits.

constexpr std::uint64_t kDuelRoot = 0xBA7C4ull;

void expect_reports_equal(const scenario::DuelReport& a,
                          const scenario::DuelReport& b, std::size_t trial) {
  const std::string where = "trial=" + std::to_string(trial);
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.alarms, b.alarms) << where;
  EXPECT_EQ(a.full_cycles, b.full_cycles) << where;
  EXPECT_EQ(a.target_area, b.target_area) << where;
  EXPECT_EQ(a.target_area_rounds, b.target_area_rounds) << where;
  EXPECT_EQ(a.target_area_alarms, b.target_area_alarms) << where;
  EXPECT_DOUBLE_EQ(a.avg_target_gap_s, b.avg_target_gap_s) << where;
  EXPECT_EQ(a.secure_stays, b.secure_stays) << where;
  EXPECT_EQ(a.prober_detections, b.prober_detections) << where;
  EXPECT_EQ(a.false_positives, b.false_positives) << where;
  EXPECT_EQ(a.false_negatives, b.false_negatives) << where;
  EXPECT_EQ(a.evasions_started, b.evasions_started) << where;
  EXPECT_EQ(a.rearms, b.rearms) << where;
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds) << where;
  EXPECT_EQ(a.confirmed_alarms, b.confirmed_alarms) << where;
  EXPECT_EQ(a.transient_alarms, b.transient_alarms) << where;
  EXPECT_EQ(a.benign_confirmed_alarms, b.benign_confirmed_alarms) << where;
  EXPECT_EQ(a.watchdog_fires, b.watchdog_fires) << where;
  EXPECT_EQ(a.scan_retries, b.scan_retries) << where;
}

scenario::ScenarioConfig seeded(std::uint64_t seed) {
  scenario::ScenarioConfig config;
  config.platform.seed = seed;
  return config;
}

struct DuelRun {
  std::vector<scenario::SingleDuelResult> results;
  std::string stable_metrics;
  std::uint64_t flight_chain = 0;
};

DuelRun solo_duels(const scenario::DuelConfig& duel,
                   const std::vector<std::string>& fault_specs) {
  EXPECT_EQ(ShardContext::current(), nullptr);
  const TrialSeedSeq seeds(kDuelRoot);
  obs::MetricsRegistry merged;
  obs::FlightRecorder flight;
  DuelRun run;
  for (std::size_t i = 0; i < fault_specs.size(); ++i) {
    obs::MetricsRegistry registry;
    obs::FlightRecorder trial_flight;
    {
      TrialObsScope scope(&registry, nullptr, &trial_flight);
      run.results.push_back(scenario::run_single_duel(
          seeded(seeds.seed_for(i)), duel, fault_specs[i]));
    }
    merged.merge_from(registry);
    flight.record(obs::FlightKind::kTrialBegin, Time::zero(), i,
                  static_cast<int>(i), seeds.seed_for(i));
    flight.append_from(trial_flight);
  }
  run.stable_metrics = merged.to_json(/*include_volatile=*/false);
  run.flight_chain = flight.chain_hash();
  return run;
}

// The same trials through TrialRunner at `jobs` workers, under a session
// metrics registry and a flight recorder that spills to `flight_path`.
DuelRun pooled_duels(int jobs, const scenario::DuelConfig& duel,
                     const std::vector<std::string>& fault_specs,
                     const std::string& flight_path) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder::Options fopts;
  fopts.path = flight_path;
  obs::FlightRecorder flight(fopts);
  DuelRun run;
  {
    TrialObsScope scope(&registry, nullptr, &flight);
    TrialRunnerOptions options;
    options.jobs = jobs;
    options.root_seed = kDuelRoot;
    TrialRunner runner(options);
    run.results = runner.run_collect(
        fault_specs.size(), [&](const TrialContext& ctx) {
          return scenario::run_single_duel(seeded(ctx.seed), duel,
                                           fault_specs[ctx.index]);
        });
  }
  EXPECT_TRUE(flight.close());
  std::filesystem::remove(flight_path);
  run.stable_metrics = registry.to_json(/*include_volatile=*/false);
  run.flight_chain = flight.chain_hash();
  return run;
}

TEST(TrialRunner, DuelSweepMatchesSoloDuelsAtAnyJobCount) {
  scenario::DuelSweepConfig config;
  config.duel.satin.tp_s = 2.0;
  config.duel.rounds_target = 8;
  config.trials = 4;
  config.root_seed = kDuelRoot;
  const DuelRun solo =
      solo_duels(config.duel, std::vector<std::string>(config.trials));

  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    obs::MetricsRegistry registry;
    scenario::DuelSweep sweep;
    {
      TrialObsScope scope(&registry, nullptr, nullptr);
      sweep = scenario::run_duel_sweep(config);
    }
    EXPECT_EQ(sweep.jobs, jobs);
    ASSERT_EQ(sweep.reports.size(), config.trials);
    for (std::size_t i = 0; i < config.trials; ++i) {
      expect_reports_equal(solo.results[i].report, sweep.reports[i], i);
    }
    EXPECT_EQ(registry.to_json(/*include_volatile=*/false),
              solo.stable_metrics);
  }
}

TEST(TrialRunner, WorkerSharedStateKeepsMetricsAndFlightChainIdentical) {
  // Twelve short duels: at jobs=1 one worker's context serves all twelve;
  // at jobs=3 three contexts split them in whatever order workers claim.
  scenario::DuelConfig duel;
  duel.satin.tp_s = 1.0;
  duel.rounds_target = 3;
  const std::vector<std::string> clean(12);
  const DuelRun solo = solo_duels(duel, clean);

  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const DuelRun pooled =
        pooled_duels(jobs, duel, clean,
                     ::testing::TempDir() + "/shared_state_j" +
                         std::to_string(jobs) + ".flt");
    ASSERT_EQ(pooled.results.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      expect_reports_equal(solo.results[i].report, pooled.results[i].report,
                           i);
    }
    EXPECT_EQ(pooled.stable_metrics, solo.stable_metrics);
    EXPECT_EQ(pooled.flight_chain, solo.flight_chain);
  }
}

TEST(TrialRunner, FaultedAndCleanTrialsSharingAWorkerMatchSoloRuns) {
  // Odd trials carry a bit-flip storm, so the trials sharing a worker's
  // kernel image and pristine base also finish at genuinely different
  // times (faulted duels take extra rounds to converge).
  scenario::DuelConfig duel;
  duel.satin.tp_s = 1.0;
  duel.rounds_target = 5;
  std::vector<std::string> specs(6);
  for (std::size_t i = 1; i < specs.size(); i += 2) {
    specs[i] = "seed=7,bitflip@1s+30s:p=0.5";
  }
  const DuelRun solo = solo_duels(duel, specs);

  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const DuelRun pooled =
        pooled_duels(jobs, duel, specs,
                     ::testing::TempDir() + "/faulted_j" +
                         std::to_string(jobs) + ".flt");
    ASSERT_EQ(pooled.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_reports_equal(solo.results[i].report, pooled.results[i].report,
                           i);
      EXPECT_EQ(pooled.results[i].faults_injected,
                solo.results[i].faults_injected)
          << "trial " << i;
      // The storm actually fired on the odd trials only.
      if (i % 2 == 1) {
        EXPECT_GT(pooled.results[i].faults_injected, 0u) << "trial " << i;
      } else {
        EXPECT_EQ(pooled.results[i].faults_injected, 0u) << "trial " << i;
      }
    }
    EXPECT_EQ(pooled.stable_metrics, solo.stable_metrics);
    EXPECT_EQ(pooled.flight_chain, solo.flight_chain);
  }
}

}  // namespace
}  // namespace satin::sim
