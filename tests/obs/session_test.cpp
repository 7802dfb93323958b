#include "obs/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight/audit.h"
#include "sim/engine.h"
#include "sim/parallel.h"

namespace satin::obs {
namespace {

// Builds a mutable argv; keeps the backing strings alive.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(strings.size());
  }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
  int argc = 0;
};

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ObsSessionTest, NoFlagsInstallsNothing) {
  Argv argv({"prog", "-v"});
  ObsSession session(argv.argc, argv.ptrs.data());
  EXPECT_FALSE(session.trace_enabled());
  EXPECT_FALSE(session.metrics_enabled());
  EXPECT_EQ(argv.argc, 2);
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(ObsSessionTest, StripsFlagsAndDerivesMetricsPath) {
  const std::string trace = testing::TempDir() + "session_strip.trace.json";
  Argv argv({"prog", "--trace=" + trace, "-v"});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.trace_enabled());
    EXPECT_TRUE(session.metrics_enabled());
    EXPECT_EQ(session.trace_path(), trace);
    EXPECT_EQ(session.metrics_path(), trace + ".metrics.json");
    // The obs flags are gone; the program's own flags survive in order.
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[0], "prog");
    EXPECT_STREQ(argv.ptrs[1], "-v");
    EXPECT_NE(tracer(), nullptr);
    EXPECT_NE(metrics(), nullptr);
  }
  // Destructor flushed the files and uninstalled the globals.
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_NE(slurp(trace).find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(slurp(trace + ".metrics.json").find("\"counters\""),
            std::string::npos);
}

TEST(ObsSessionTest, FlushWithEngineAddsSelfMetrics) {
  const std::string trace = testing::TempDir() + "session_engine.trace.json";
  Argv argv({"prog", "--trace=" + trace});
  sim::Engine engine;
  engine.schedule_at(sim::Time::from_ms(1), [] {});
  engine.run_all();
  ObsSession session(argv.argc, argv.ptrs.data());
  EXPECT_TRUE(session.flush(&engine));
  const std::string metrics_json = slurp(session.metrics_path());
  EXPECT_NE(metrics_json.find("engine.events_fired"), std::string::npos);
  EXPECT_NE(metrics_json.find("engine.wall_s_per_sim_s"), std::string::npos);
}

TEST(ObsSessionTest, FlightFlagRecordsEngineCommits) {
  const std::string path = testing::TempDir() + "session_flight.bin";
  Argv argv({"prog", "--flight=" + path, "-k"});
  sim::Engine engine;
  {
    ObsSession session(argv.argc, argv.ptrs.data());
#if SATIN_OBS_ENABLED
    ASSERT_TRUE(session.flight_enabled());
    EXPECT_EQ(session.flight_path(), path);
    EXPECT_EQ(session.flight_ring(), 0u);
    EXPECT_EQ(flight(), session.flight_recorder());
#endif
    ASSERT_EQ(argv.argc, 2);
    EXPECT_STREQ(argv.ptrs[1], "-k");
    for (int i = 1; i <= 5; ++i) {
      engine.schedule_at(sim::Time::from_ms(i), [] {});
    }
    engine.run_all();
    EXPECT_TRUE(session.flush(&engine));
  }
  EXPECT_EQ(flight(), nullptr);
#if SATIN_OBS_ENABLED
  {
    FlightLog log;
    ASSERT_TRUE(read_flight_log(path, log));
    EXPECT_TRUE(log.has_footer);
    EXPECT_EQ(log.commits, 5u);
    for (const FlightRecord& r : log.records) {
      EXPECT_EQ(r.kind, static_cast<std::uint16_t>(FlightKind::kDispatch));
    }
  }
#endif
  std::remove(path.c_str());
}

TEST(ObsSessionTest, FlightRingSpecParsed) {
  const std::string path = testing::TempDir() + "session_flight_ring.bin";
  Argv argv({"prog", "--flight=" + path + ",ring=128"});
  ObsSession session(argv.argc, argv.ptrs.data());
#if SATIN_OBS_ENABLED
  EXPECT_TRUE(session.flight_enabled());
  EXPECT_EQ(session.flight_path(), path);
  EXPECT_EQ(session.flight_ring(), 128u);
  EXPECT_TRUE(session.flight_recorder()->ring_mode());
#endif
  session.flush();
  std::remove(path.c_str());
}

TEST(ObsSessionTest, MetricsStableDropsVolatileGauges) {
  const std::string with_wall = testing::TempDir() + "session_vol.json";
  const std::string stable = testing::TempDir() + "session_stable.json";
  sim::Engine engine;
  engine.schedule_at(sim::Time::from_ms(1), [] {});
  engine.run_all();
  {
    Argv argv({"prog", "--metrics=" + with_wall});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.metrics_stable());
    session.flush(&engine);
  }
  {
    Argv argv({"prog", "--metrics=" + stable, "--metrics-stable"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.metrics_stable());
    EXPECT_EQ(argv.argc, 1);  // the bare switch is stripped too
    session.flush(&engine);
  }
  const std::string full_json = slurp(with_wall);
  const std::string stable_json = slurp(stable);
  EXPECT_NE(full_json.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(stable_json.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(stable_json.find("engine.pool_high_water"), std::string::npos);
  EXPECT_NE(stable_json.find("engine.events_fired"), std::string::npos);
  std::remove(with_wall.c_str());
  std::remove(stable.c_str());
}

// Constructs a session from `args` (argv[0] is added); the death test
// below runs it in a child and expects the numeric-flag diagnostic.
void make_session(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  Argv argv(std::move(args));
  ObsSession session(argv.argc, argv.ptrs.data());
}

TEST(ObsSessionDeathTest, NonNumericValuesExitWithADiagnostic) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string ring =
      "--flight=" + testing::TempDir() + "session_bad_ring.bin,ring=";
  // A prefix parse would read "abc" as 0 (--jobs=0 means all cores,
  // ring=0 spills the full stream) and "64k" as 64, silently changing
  // the run. Each case: argument, flag the diagnostic must name.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--jobs=abc", "--jobs"},
      {"--jobs=3x", "--jobs"},
      {"--jobs= 2", "--jobs"},
      {ring + "abc", "ring="},
      {ring + "64k", "ring="},
      {ring, "ring="},
      {ring + "-1", "ring="},
  };
  for (const auto& [arg, flag] : cases) {
    EXPECT_EXIT(make_session({arg}), testing::ExitedWithCode(2),
                flag + ".*not a valid number")
        << arg;
  }
  // A negative worker count used to read as "flag absent" and silently
  // run the default.
  EXPECT_EXIT(make_session({"--jobs=-3"}), testing::ExitedWithCode(2),
              "--jobs=-3 must be >= 0");
}

TEST(ObsSessionDeathTest, DigestCacheTypoExitsWithADiagnostic) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Keeping the cache on after a typo such as --digest-cache=of would
  // silently measure the wrong configuration.
  for (const std::string arg :
       {"--digest-cache=of", "--digest-cache=OFF", "--digest-cache=0"}) {
    EXPECT_EXIT(make_session({arg}), testing::ExitedWithCode(2),
                "--digest-cache=.*not understood")
        << arg;
  }
}

TEST(ObsSessionTest, NumericFlagsParseWholeValues) {
  const std::string path = testing::TempDir() + "session_ring_ok.bin";
  {
    Argv argv({"prog", "--jobs=3", "--flight=" + path + ",ring=65536"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_EQ(session.jobs(), 3);
    EXPECT_EQ(session.flight_ring(), 65536u);
    EXPECT_EQ(argv.argc, 1);
  }
  std::remove(path.c_str());
  {
    // --jobs=0 keeps its documented meaning: one worker per hardware
    // thread.
    Argv argv({"prog", "--jobs=0"});
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_TRUE(session.jobs_requested());
    EXPECT_EQ(session.jobs(7), sim::TrialRunner::hardware_jobs());
  }
  {
    // Sweep-shape flags belong to the programs that read them: the
    // session leaves them in argv for refuse_leftover_args to catch.
    Argv argv({"prog", "--batch=8", "--branches=3", "--fork-prefix=100"});
    ObsSession session(argv.argc, argv.ptrs.data());
    ASSERT_EQ(argv.argc, 4);
    EXPECT_STREQ(argv.ptrs[1], "--batch=8");
    EXPECT_FALSE(session.jobs_requested());
  }
}

TEST(ObsSessionDeathTest, LeftoverArgumentsExitNamingTheFirst) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Argv operand({"prog", "spec.json"});
  refuse_leftover_args(operand.argc, operand.ptrs.data(), /*positional=*/1);
  Argv argv({"prog", "spec.json", "--branch=3", "--bogus"});
  EXPECT_EXIT(refuse_leftover_args(argv.argc, argv.ptrs.data()),
              testing::ExitedWithCode(2), "unrecognized argument spec.json");
  EXPECT_EXIT(refuse_leftover_args(argv.argc, argv.ptrs.data(), 1),
              testing::ExitedWithCode(2), "unrecognized argument --branch=3");
}

TEST(ObsSessionTest, MetricsOnlyRunWritesNoTrace) {
  const std::string path = testing::TempDir() + "session_only.metrics.json";
  Argv argv({"prog", "--metrics=" + path});
  {
    ObsSession session(argv.argc, argv.ptrs.data());
    EXPECT_FALSE(session.trace_enabled());
    EXPECT_TRUE(session.metrics_enabled());
  }
  EXPECT_NE(slurp(path).find("\"gauges\""), std::string::npos);
}

}  // namespace
}  // namespace satin::obs
