// ForkServer failure ladder + determinism contract (sim/fork.h).
//
// ForkServer earns its keep only if (a) every failure mode — SIGKILL
// mid-trial, silent wedge, torn pipe record — resolves to exactly-once
// results via the retry ladder with no orphan processes left behind,
// each index settling once, in the parent, under its global index; and
// (b) a child's trial is indistinguishable from the same trial run
// in-process. (a) and run_fork_groups' group loop are pinned here; (b)
// by SupervisorTest.ProcessBackendRecordsMatchInProcessTrials, where
// every campaign trial is a ForkServer child, and here for a fork sweep
// of duels whose group size exceeds its trial count.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "scenario/experiments.h"
#include "sim/fork.h"
#include "sim/parallel.h"
#include "sim/seed_seq.h"

namespace satin {
namespace {

std::string tag(std::size_t index) {
  return "payload-" + std::to_string(index);
}

// Indices 0..n-1, the shape every sweep group before the last one has.
std::vector<std::size_t> first(std::size_t n) {
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// After a run every child must be reaped: waitpid(-1) with no children
// left reports ECHILD. gtest runs tests sequentially in-process, so any
// child alive here is ForkServer's orphan.
void expect_no_orphans() {
  int status = 0;
  const pid_t p = ::waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(p, -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ForkServer, RunsEveryBranchExactlyOnce) {
  sim::ForkServer server;
  const auto outcomes =
      server.run(first(5), [](std::size_t index) { return tag(index); });
  ASSERT_EQ(outcomes.size(), 5u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].payload, tag(i));
    EXPECT_EQ(outcomes[i].attempts, 1);
  }
  EXPECT_EQ(server.forks(), 5u);
  EXPECT_EQ(server.crashes(), 0u);
  EXPECT_EQ(server.retries(), 0u);
  expect_no_orphans();
}

TEST(ForkServer, SigkilledChildIsRetriedExactlyOnce) {
  sim::ForkServerOptions options;
  options.chaos_kill_branch = 1;  // dies after its heartbeat, first try only
  sim::ForkServer server(options);
  const auto outcomes =
      server.run(first(3), [](std::size_t index) { return tag(index); });
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].payload, tag(i));
  }
  EXPECT_EQ(outcomes[1].attempts, 2);
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_EQ(outcomes[2].attempts, 1);
  EXPECT_EQ(server.crashes(), 1u);
  EXPECT_EQ(server.retries(), 1u);
  EXPECT_EQ(server.forks(), 4u);
  expect_no_orphans();
}

TEST(ForkServer, WedgedChildIsKilledPastTheHeartbeatTimeout) {
  sim::ForkServerOptions options;
  options.chaos_hang_branch = 0;
  options.timeout_s = 0.3;
  sim::ForkServer server(options);
  const auto outcomes =
      server.run(first(2), [](std::size_t index) { return tag(index); });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].payload, tag(0));
  EXPECT_EQ(outcomes[0].attempts, 2);
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
  EXPECT_EQ(server.timeouts(), 1u);
  EXPECT_EQ(server.retries(), 1u);
  expect_no_orphans();
}

TEST(ForkServer, TornRecordIsDiscardedAndRetried) {
  sim::ForkServerOptions options;
  options.chaos_torn_branch = 2;  // first record's checksum is corrupted
  sim::ForkServer server(options);
  const auto outcomes =
      server.run(first(3), [](std::size_t index) { return tag(index); });
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].payload, tag(i));  // never the torn payload
  }
  EXPECT_EQ(outcomes[2].attempts, 2);
  EXPECT_EQ(server.crashes(), 1u);
  EXPECT_EQ(server.retries(), 1u);
  expect_no_orphans();
}

TEST(ForkServer, DeterministicExceptionIsNotRetried) {
  sim::ForkServer server;
  const auto outcomes = server.run(first(3), [](std::size_t index) {
    if (index == 1) throw std::runtime_error("knob out of range");
    return tag(index);
  });
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].error, "knob out of range");
  EXPECT_EQ(outcomes[1].attempts, 1);  // an "E" record is final, no re-fork
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(server.retries(), 0u);
  expect_no_orphans();
}

TEST(ForkGroups, RethrowTheLowestIndexErrorAndSkipLaterGroups) {
  // Groups {0,1,2} {3,4,5} {6}: indices 4 and 5 throw, so the second
  // group fails with index 4's error and the third never forks.
  const std::string marks = testing::TempDir() + "/fork_groups_" +
                            std::to_string(::getpid()) + "_";
  try {
    sim::run_fork_groups(7, 3, {}, [&](std::size_t index) {
      std::FILE* f = std::fopen((marks + std::to_string(index)).c_str(), "w");
      if (f != nullptr) std::fclose(f);
      if (index == 4) throw std::runtime_error("branch four failed");
      if (index == 5) throw std::runtime_error("branch five failed");
      return tag(index);
    });
    FAIL() << "run_fork_groups did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "branch four failed");
  }
  for (std::size_t index = 0; index < 7; ++index) {
    const std::string mark = marks + std::to_string(index);
    EXPECT_EQ(exists(mark), index < 6) << "index " << index;
    std::remove(mark.c_str());
  }
  expect_no_orphans();
}

TEST(ForkGroups, WarmPrefixRunsOncePerGroupUnderInheritedGroupSinks) {
  obs::MetricsRegistry session;
  obs::install_metrics(&session);
  int prefixes = 0;
  int destroyed = 0;
  const auto payloads = sim::run_fork_groups(
      5, 2, {}, nullptr, [&](std::size_t base) -> sim::ForkServer::Body {
        ++prefixes;
        obs::metrics()->counter("prefix").inc();
        // The warm state lives exactly as long as the group's body.
        std::shared_ptr<std::size_t> state(
            new std::size_t(base), [&destroyed](std::size_t* p) {
              ++destroyed;
              delete p;
            });
        return [state](std::size_t index) {
          obs::metrics()->counter("branch").inc();
          return std::to_string(*state) + "/" + std::to_string(index);
        };
      });
  obs::install_metrics(nullptr);

  EXPECT_EQ(payloads, (std::vector<std::string>{"0/0", "0/1", "2/2", "2/3",
                                                "4/4"}));
  EXPECT_EQ(prefixes, 3);
  EXPECT_EQ(destroyed, 3);
  // Every branch stream carries its group's prefix record; the prefix
  // itself recorded into the group sinks, never into the session's.
  EXPECT_EQ(session.counter("prefix").value(), 5u);
  EXPECT_EQ(session.counter("branch").value(), 5u);
  expect_no_orphans();
}

// A fast sweep config: a handful of short duels, distinct per-trial
// platform seeds (run_duel_sweep derives them from root_seed).
scenario::DuelSweepConfig quick_sweep(std::size_t trials) {
  scenario::DuelSweepConfig config;
  config.trials = trials;
  config.jobs = 2;
  config.root_seed = 20260809;
  config.duel.satin.tgoal_s = 10.0;
  config.duel.rounds_target = 3;
  return config;
}

TEST(ForkedDuelSweep, BranchCountAboveTrialsClampsToTrials) {
  const auto config = quick_sweep(3);
  const auto unforked = scenario::run_duel_sweep(config);

  // More branches than trials: one group holds every trial, and each
  // zero-prefix child's duel is the unforked sweep's, byte for byte.
  const sim::TrialSeedSeq seeds(config.root_seed);
  const auto forked = sim::run_fork_groups(
      config.trials, 8, {}, [&](std::size_t index) {
        scenario::ScenarioConfig scenario_config;
        scenario_config.platform.seed = seeds.seed_for(index);
        return scenario::encode_duel_report(
            scenario::run_single_duel(scenario_config, config.duel).report);
      });
  ASSERT_EQ(forked.size(), 3u);
  ASSERT_EQ(unforked.reports.size(), 3u);
  for (std::size_t i = 0; i < forked.size(); ++i) {
    EXPECT_EQ(forked[i], scenario::encode_duel_report(unforked.reports[i]))
        << "trial " << i;
  }

  // The warm-prefix path runs its prefix once for that single group.
  int prefixes = 0;
  EXPECT_EQ(sim::run_fork_groups(
                3, 8, {}, nullptr,
                [&](std::size_t base) -> sim::ForkServer::Body {
                  ++prefixes;
                  return [base](std::size_t index) {
                    return std::to_string(base) + "/" + std::to_string(index);
                  };
                }),
            (std::vector<std::string>{"0/0", "0/1", "0/2"}));
  EXPECT_EQ(prefixes, 1);
  expect_no_orphans();
}

TEST(ForkServer, RetryBudgetExhaustionReportsTheFailure) {
  sim::ForkServerOptions options;
  options.max_retries = 1;
  sim::ForkServer server(options);
  // Unlike the chaos knobs (first attempt only), this crash is
  // systematic: every attempt dies, so the ladder must give up.
  const auto outcomes = server.run(first(2), [](std::size_t index) {
    if (index == 0) raise(SIGKILL);
    return tag(index);
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("crashed"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 2);  // initial + max_retries
  EXPECT_TRUE(outcomes[1].ok);
  expect_no_orphans();
}

TEST(ForkServer, NonContiguousIndicesKeepTheirGlobalIdentity) {
  std::string dir = testing::TempDir() + "/fork_indices_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight;  // in-memory
  sim::TrialObsScope sinks(&metrics, nullptr, &flight);

  sim::ForkServerOptions options;
  options.scratch_dir = dir;
  options.marker_seed = [](std::size_t index) { return 1000 + index; };
  sim::ForkServer server(options);
  const std::vector<std::size_t> indices = {5, 2, 9};
  const auto outcomes = server.run(indices, [](std::size_t index) {
    obs::metrics()->counter("test.index_sum").inc(index);
    return tag(index);
  });
  ASSERT_EQ(outcomes.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    EXPECT_TRUE(outcomes[k].ok) << outcomes[k].error;
    EXPECT_EQ(outcomes[k].payload, tag(indices[k]));  // body saw index
    // Artifacts are named by index, and survive until merge_obs().
    EXPECT_TRUE(exists(sim::trial_metrics_path(dir, indices[k])));
    EXPECT_TRUE(exists(sim::trial_flight_path(dir, indices[k])));
  }
  EXPECT_EQ(sim::trial_metrics_path(dir, 5), dir + "/trial_5.met");
  EXPECT_EQ(sim::trial_flight_path(dir, 5), dir + "/trial_5.flt");

  server.merge_obs();
  EXPECT_EQ(metrics.counter("test.index_sum").value(), 16u);
  std::vector<int> markers;
  for (const obs::FlightRecord& r : flight.snapshot()) {
    if (r.kind != static_cast<std::uint16_t>(obs::FlightKind::kTrialBegin)) {
      continue;
    }
    markers.push_back(r.actor);
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(r.actor));
    EXPECT_EQ(r.payload, 1000u + static_cast<std::uint64_t>(r.actor));
  }
  EXPECT_EQ(markers, (std::vector<int>{5, 2, 9}));  // run()'s order
  for (std::size_t index : indices) {
    EXPECT_FALSE(exists(sim::trial_metrics_path(dir, index)));
    EXPECT_FALSE(exists(sim::trial_flight_path(dir, index)));
  }
  ::rmdir(dir.c_str());
  expect_no_orphans();
}

TEST(ForkServer, OnSettledFiresOncePerIndexInTheParentBeforeRunReturns) {
  sim::ForkServerOptions options;
  options.chaos_kill_branch = 7;  // first attempt dies, the retry lands
  sim::ForkServer server(options);
  const pid_t parent = ::getpid();
  std::map<std::size_t, int> calls;
  std::map<std::size_t, sim::ForkOutcome> seen;
  const auto outcomes = server.run(
      {3, 7, 4},
      [](std::size_t index) {
        if (index == 4) throw std::runtime_error("index four threw");
        return tag(index);
      },
      [&](std::size_t index, const sim::ForkOutcome& settled) {
        EXPECT_EQ(::getpid(), parent);
        ++calls[index];
        seen[index] = settled;
      });
  // Every index settled exactly once, and the callback saw the final
  // outcome: the chaos-killed index after its retry, the throw as "E".
  EXPECT_EQ(calls, (std::map<std::size_t, int>{{3, 1}, {4, 1}, {7, 1}}));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(seen[3].ok);
  EXPECT_EQ(seen[3].payload, tag(3));
  EXPECT_TRUE(seen[7].ok);
  EXPECT_EQ(seen[7].payload, tag(7));
  EXPECT_EQ(seen[7].attempts, 2);
  EXPECT_EQ(outcomes[1].attempts, 2);
  EXPECT_FALSE(seen[4].ok);
  EXPECT_EQ(seen[4].error, "index four threw");
  EXPECT_EQ(seen[4].attempts, 1);
  EXPECT_EQ(server.retries(), 1u);
  expect_no_orphans();
}

TEST(ForkServer, OnSettledReportsAnExhaustedRetryBudget) {
  sim::ForkServerOptions options;
  options.max_retries = 0;
  options.chaos_kill_branch = 1;  // the only attempt dies
  sim::ForkServer server(options);
  std::map<std::size_t, int> calls;
  bool failed_ok = true;
  server.run(first(2), [](std::size_t index) { return tag(index); },
             [&](std::size_t index, const sim::ForkOutcome& settled) {
               ++calls[index];
               if (index == 1) failed_ok = settled.ok;
             });
  EXPECT_EQ(calls, (std::map<std::size_t, int>{{0, 1}, {1, 1}}));
  EXPECT_FALSE(failed_ok);
  expect_no_orphans();
}

TEST(ForkServer, RecordChecksumIsFnv1a) {
  EXPECT_EQ(sim::ForkServer::record_checksum(""),
            14695981039346656037ull);
  EXPECT_NE(sim::ForkServer::record_checksum("a"),
            sim::ForkServer::record_checksum("b"));
}

}  // namespace
}  // namespace satin
