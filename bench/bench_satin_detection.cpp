// §VI-B1 — Defeating TZ-Evader: the paper's headline experiment.
//
// SATIN (19 areas, tp = 8 s) against TZ-Evader (KProber threshold
// 1.8e-3 s, GETTID hijack in area 14). The paper runs 190 rounds: the
// whole kernel is examined 10 times, area 14 is checked 10 times and the
// hijack is detected all 10 times; KProber reports all 190 rounds with no
// false positives or negatives; the average gap between area-14 checks is
// 141 s and the guaranteed full-scan period ~152 s.
//
// Three seed replicas run through scenario::run_duel_sweep over --jobs=J
// workers. Replica 0 keeps the paper-baseline platform seed (its rows
// below match the single-run bench of record); the extra replicas feed
// the seed-stability summary. --jobs is the duel's only execution knob:
// --batch=, --branches= and --fork-prefix= exit 2, like any argument the
// bench does not read. --batch=K belongs to the --clean-rounds workload.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/common.h"
#include "scenario/experiments.h"
#include "secure/digest_cache.h"
#include "sim/parallel.h"

namespace {

// Strips --clean-rounds=<N> from argv; 0 = flag absent (run the duel).
// A malformed N exits 2.
std::uint64_t take_clean_rounds(int& argc, char** argv) {
  const std::string rounds = satin::obs::take_flag(argc, argv, "clean-rounds");
  return rounds.empty() ? 0
                        : satin::obs::parse_number<std::uint64_t>(
                              "--clean-rounds", rounds);
}

// SATIN alone (no attacker, no workload churn) with a brisk tp: one area
// every 50 ms, so hashing dominates the events.
satin::core::SatinConfig clean_config() {
  satin::core::SatinConfig config;
  config.tp_s = 0.05;
  return config;
}

void print_clean_rows(satin::scenario::Scenario& system,
                      satin::core::Satin& satin) {
  using namespace satin;
  const auto& stats = satin.checker().introspector().digest_cache().stats();
  bench::heading("SATIN clean-round introspection (digest-cache workload)");
  bench::text_row("introspection rounds", std::to_string(satin.rounds()));
  bench::text_row("full kernel cycles", std::to_string(satin.full_cycles()));
  bench::text_row("areas", std::to_string(satin.area_count()));
  bench::text_row("alarms", std::to_string(satin.alarm_count()),
                  "(every digest matched the authorized value)");
  bench::sci_row("simulated duration (s)", {system.now().sec()});
  // Shadow mode keeps this bookkeeping identical with the cache off, so
  // these rows are safe to print under the on-vs-off stdout diff. The
  // pristine-base serve path counts served chunks as misses for the same
  // reason, so they also hold whichever replicas shared a worker.
  bench::subheading("digest cache");
  bench::text_row("chunk hits", std::to_string(stats.hits));
  bench::text_row("chunk misses", std::to_string(stats.misses));
  bench::text_row("chunk invalidations", std::to_string(stats.invalidations));
  bench::text_row("bypasses", std::to_string(stats.bypasses));
  bench::text_row("bytes hashed", std::to_string(stats.bytes_hashed));
  bench::text_row("bytes skipped", std::to_string(stats.bytes_skipped));
}

// One clean-run replica: runs in 500 ms slices until `target` rounds (so
// it stops near the target instead of overshooting by a whole horizon),
// then stops SATIN and drains in-flight rounds. Returns the alarm count;
// `print` emits the rows of record.
std::uint64_t run_clean_replica(const satin::scenario::ScenarioConfig& config,
                                std::uint64_t target, bool print) {
  using namespace satin;
  scenario::Scenario system(config);
  core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                    clean_config());
  satin.start();
  while (satin.rounds() < target) {
    system.run_for(sim::Duration::from_ms(500));
  }
  satin.stop();
  system.run_for(sim::Duration::from_ms(500));  // drain in-flight rounds
  if (print) print_clean_rows(system, satin);
  return satin.alarm_count();
}

// --clean-rounds=N: a hash-dominated workload for the incremental digest
// cache, the mostly-clean steady state §VI-B1's long runs spend their time
// in: almost every round re-hashes a byte-identical area. With the cache
// on, warm rounds skip the full re-hash in host time; simulated time,
// digests and every stdout row below stay bit-identical to
// --digest-cache=off (the CI gate diffs the two).
//
// --batch=K runs K replicas through the thread pool (--jobs=J): replica 0
// keeps the default platform seed and prints the rows of record, the rest
// take sweep seeds. Replicas on one worker share its kernel image and
// pristine digest base, and this workload is dominated by exactly those
// per-replica fixed costs (kernel-image construction, boot authorization,
// the first-cycle hash of every chunk), so it is the headline A/B for one
// --batch=K run against K separate --batch=1 runs in
// scripts/run_benches.sh.
int run_clean_rounds(std::uint64_t target, int batch,
                     satin::bench::ObsGuard& obs) {
  using namespace satin;
  sim::TrialRunnerOptions options;
  options.jobs = obs.jobs(/*fallback=*/1);
  sim::TrialRunner runner(options);
  const auto replicas = static_cast<std::size_t>(batch);
  const std::vector<std::uint64_t> alarms =
      runner.run_collect(replicas, [target](const sim::TrialContext& ctx) {
        scenario::ScenarioConfig config;
        config.platform.seed =
            ctx.index == 0 ? hw::PlatformConfig{}.seed : ctx.seed;
        return run_clean_replica(config, target, ctx.index == 0);
      });
  bench::json_row(std::string("bench_satin_detection_clean_") +
                      (secure::digest_cache_default() ? "on" : "off"),
                  runner.trials_run(), runner.jobs_for(replicas),
                  runner.wall_seconds());
  for (std::uint64_t a : alarms) {
    if (a != 0) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  using namespace satin;
  const std::uint64_t clean_rounds = take_clean_rounds(argc, argv);
  if (clean_rounds > 0) {
    const int batch = bench::take_count_flag(argc, argv, "batch", 1);
    satin::obs::refuse_leftover_args(argc, argv);
    return run_clean_rounds(clean_rounds, batch, obs);
  }
  satin::obs::refuse_leftover_args(argc, argv);
  constexpr std::size_t kReplicas = 3;

  scenario::DuelSweepConfig sweep_config;
  sweep_config.duel.rounds_target = 190;  // defaults ARE the paper config
  sweep_config.trials = kReplicas;
  sweep_config.jobs = obs.jobs(/*fallback=*/1);

  std::printf(
      "running %zu replicas of 190 introspection rounds (~1520 simulated s "
      "each)...\n",
      kReplicas);
  const scenario::DuelSweep sweep = scenario::run_duel_sweep(
      sweep_config,
      [](const sim::TrialContext& ctx, scenario::ScenarioConfig& config,
         scenario::DuelConfig&) {
        // Replica 0 is the run of record: the default platform seed every
        // previous single-run bench and EXPERIMENTS.md quoted.
        if (ctx.index == 0) config.platform.seed = hw::PlatformConfig{}.seed;
      });
  const scenario::DuelReport& report = sweep.reports[0];

  bench::heading("SATIN vs TZ-Evader (§VI-B1)");
  bench::text_row("introspection rounds", std::to_string(report.rounds),
                  "(paper: 190)");
  bench::text_row("full kernel scans", std::to_string(report.full_cycles),
                  "(paper: 10)");
  bench::text_row("area-14 checks",
                  std::to_string(report.target_area_rounds), "(paper: 10)");
  bench::text_row("area-14 detections",
                  std::to_string(report.target_area_alarms),
                  "(paper: 10/10)");
  bench::text_row("prober-reported rounds",
                  std::to_string(report.prober_detections),
                  "(paper: all 190)");
  bench::text_row("false positives", std::to_string(report.false_positives),
                  "(paper: 0)");
  bench::text_row("false negatives", std::to_string(report.false_negatives),
                  "(paper: 0)");
  bench::sci_row("avg gap between area-14 checks (s)",
                 {report.avg_target_gap_s}, "(paper: 141 s)");
  bench::text_row("evasion attempts", std::to_string(report.evasions_started));
  bench::text_row("successful evasions of area-14 scans",
                  std::to_string(report.target_area_rounds -
                                 report.target_area_alarms),
                  "(paper: 0 — 'all the recovery efforts fail')");
  bench::sci_row("simulated duration (s)", {report.sim_seconds});

  bench::subheading("seed stability across replicas");
  std::size_t always_caught = 0;
  std::uint64_t fp = 0, fn = 0;
  double gap_min = sweep.reports[0].avg_target_gap_s;
  double gap_max = gap_min;
  for (const scenario::DuelReport& r : sweep.reports) {
    if (r.satin_always_caught()) ++always_caught;
    fp += r.false_positives;
    fn += r.false_negatives;
    gap_min = std::min(gap_min, r.avg_target_gap_s);
    gap_max = std::max(gap_max, r.avg_target_gap_s);
  }
  bench::text_row("replicas always caught",
                  std::to_string(always_caught) + "/" +
                      std::to_string(kReplicas),
                  "(every area-14 pass alarmed, every seed)");
  bench::text_row("false pos/neg across replicas",
                  std::to_string(fp) + "/" + std::to_string(fn),
                  "(paper: 0/0)");
  bench::sci_row("area-14 gap range (s)", {gap_min, gap_max},
                 "(paper: 141 s)");

  scenario::Scenario scenario;
  core::Satin probe(scenario.platform(), scenario.kernel(), scenario.tsp(),
                    core::SatinConfig{});
  bench::sci_row("guaranteed full-scan period (s)",
                 {probe.guaranteed_scan_period(hw::CoreType::kBigA57).sec()},
                 "(paper: ~152 s)");
  bench::json_row("bench_satin_detection", kReplicas, sweep.jobs,
                  sweep.wall_seconds);
  return 0;
}
