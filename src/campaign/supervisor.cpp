#include "campaign/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/trial.h"
#include "fault/injector.h"
#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "scenario/scenario.h"
#include "sim/batch.h"
#include "sim/fork.h"
#include "sim/parallel.h"
#include "sim/seed_seq.h"

namespace satin::campaign {

namespace {

std::string format_double17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string format_campaign_stats(
    const CampaignSpec& spec, const CampaignOutcome& outcome,
    const std::map<std::uint64_t, TrialResult>& completed) {
  std::string out = "{\n";
  char buf[192];
  out += "  \"schema\": \"satin-campaign-stats/1\",\n";
  out += "  \"name\": \"" + spec.name + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"spec_hash\": \"%016" PRIx64 "\",\n",
                spec.content_hash());
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"trials\": %" PRIu64 ",\n", spec.trials);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"root_seed\": %" PRIu64 ",\n",
                spec.root_seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"completed\": %zu,\n", completed.size());
  out += buf;
  out += std::string("  \"degraded\": ") +
         (outcome.degraded ? "true" : "false") + ",\n";
  out += "  \"failed_trials\": [";
  for (std::size_t i = 0; i < outcome.failed_trials.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(outcome.failed_trials[i]);
  }
  out += "],\n";

  // Aggregates fold in index order (std::map iteration), so any schedule
  // that completed the same trial set writes the same bytes.
  std::uint64_t rounds = 0, alarms = 0, cycles = 0, tar = 0, taa = 0;
  std::uint64_t stays = 0, det = 0, fp = 0, fn = 0, ev = 0, rearms = 0;
  std::uint64_t conf = 0, trans = 0, benign = 0, wdog = 0, sretry = 0;
  std::uint64_t injected = 0, always_caught = 0;
  double sim_seconds = 0.0, gap_sum = 0.0;
  std::uint64_t gap_count = 0;
  for (const auto& [index, r] : completed) {
    (void)index;
    const scenario::DuelReport& d = r.report;
    rounds += d.rounds;
    alarms += d.alarms;
    cycles += d.full_cycles;
    tar += d.target_area_rounds;
    taa += d.target_area_alarms;
    stays += d.secure_stays;
    det += d.prober_detections;
    fp += d.false_positives;
    fn += d.false_negatives;
    ev += d.evasions_started;
    rearms += d.rearms;
    conf += d.confirmed_alarms;
    trans += d.transient_alarms;
    benign += d.benign_confirmed_alarms;
    wdog += d.watchdog_fires;
    sretry += d.scan_retries;
    injected += r.faults_injected;
    if (d.satin_always_caught()) ++always_caught;
    sim_seconds += d.sim_seconds;
    if (d.avg_target_gap_s > 0.0) {
      gap_sum += d.avg_target_gap_s;
      ++gap_count;
    }
  }
  out += "  \"aggregate\": {\n";
  const auto field_u64 = [&out](const char* key, std::uint64_t v,
                                bool last = false) {
    char line[96];
    std::snprintf(line, sizeof(line), "    \"%s\": %" PRIu64 "%s\n", key, v,
                  last ? "" : ",");
    out += line;
  };
  field_u64("rounds", rounds);
  field_u64("alarms", alarms);
  field_u64("full_cycles", cycles);
  field_u64("target_area_rounds", tar);
  field_u64("target_area_alarms", taa);
  field_u64("secure_stays", stays);
  field_u64("prober_detections", det);
  field_u64("false_positives", fp);
  field_u64("false_negatives", fn);
  field_u64("evasions_started", ev);
  field_u64("rearms", rearms);
  field_u64("confirmed_alarms", conf);
  field_u64("transient_alarms", trans);
  field_u64("benign_confirmed_alarms", benign);
  field_u64("watchdog_fires", wdog);
  field_u64("scan_retries", sretry);
  field_u64("faults_injected", injected);
  field_u64("always_caught_trials", always_caught);
  out += "    \"sim_seconds_total\": " + format_double17(sim_seconds) + ",\n";
  out += "    \"avg_target_gap_s_mean\": " +
         format_double17(gap_count > 0
                             ? gap_sum / static_cast<double>(gap_count)
                             : 0.0) +
         "\n  },\n";

  out += "  \"per_trial\": [\n";
  bool first = true;
  for (const auto& [index, r] : completed) {
    if (!first) out += ",\n";
    first = false;
    const scenario::DuelReport& d = r.report;
    std::snprintf(buf, sizeof(buf),
                  "    {\"i\": %" PRIu64 ", \"seed\": \"%016" PRIx64
                  "\", \"rounds\": %" PRIu64 ", \"taa\": %" PRIu64
                  ", \"tar\": %" PRIu64 ", \"conf\": %" PRIu64
                  ", \"trans\": %" PRIu64 ", \"inj\": %" PRIu64,
                  index, r.seed, d.rounds, d.target_area_alarms,
                  d.target_area_rounds, d.confirmed_alarms, d.transient_alarms,
                  r.faults_injected);
    out += buf;
    out += ", \"sim_s\": " + format_double17(d.sim_seconds) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_campaign_stats(const std::string& path, const std::string& body,
                          std::string* error) {
  // The atomic temp+rename dance would silently REPLACE a device node or
  // socket (`--out=/dev/null` turning /dev/null into a regular file is
  // the classic casualty) — refuse instead.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    if (error != nullptr) {
      *error = path + ": refusing to replace non-regular file";
    }
    return false;
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = tmp + ": cannot open for write";
    return false;
  }
  const bool write_ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool flush_ok = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !flush_ok || !close_ok) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = tmp + ": write failed";
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = path + ": rename failed";
    return false;
  }
  return true;
}

namespace {

// One campaign trial decomposed for the in-process lockstep shard
// backend: the inputs run_campaign_trial() runs with (derive_trial_inputs),
// split into construct / advance / finish so sim::run_lockstep_shard can
// interleave shard-mates through the fused engine pass. The composed
// result is written through `out` at finish() time because the shard loop
// destroys the trial object as soon as it completes.
class CampaignLockstepTrial final : public sim::LockstepTrial {
 public:
  CampaignLockstepTrial(const CampaignSpec& spec, std::uint64_t index,
                        TrialResult* out, bool* completed)
      : index_(index), out_(out), completed_(completed) {
    const TrialInputs in = derive_trial_inputs(spec, index);
    seed_ = in.seed;
    system_ = std::make_unique<scenario::Scenario>(in.scenario);
    injector_ = fault::install_from_spec(system_->platform(), in.faults);
    duel_ = std::make_unique<scenario::DuelTrial>(*system_, spec.duel);
  }

  bool done() const override { return duel_->done(); }
  void advance(sim::Duration quantum) override { duel_->advance(quantum); }
  // DuelTrial::advance is exactly engine run_until (fault injections are
  // ordinary scheduled events), so the fused pass may drive the engine
  // directly — the sim/batch.h contract.
  sim::Engine* fused_engine() override { return &system_->engine(); }

  void finish() override {
    out_->index = index_;
    out_->seed = seed_;
    out_->report = duel_->finish();
    out_->faults_injected =
        injector_ != nullptr ? injector_->injected_total() : 0;
    // The same snapshot run_single_duel takes — engine self-metrics minus
    // host wall time — into this trial's private registry.
    if (auto* registry = obs::metrics()) {
      obs::snapshot_engine_metrics(system_->engine(), *registry,
                                   /*include_wall=*/false);
    }
    *completed_ = true;
  }

 private:
  std::uint64_t index_;
  std::uint64_t seed_ = 0;
  TrialResult* out_;
  bool* completed_;
  std::unique_ptr<scenario::Scenario> system_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<scenario::DuelTrial> duel_;
};

class Supervisor {
 public:
  Supervisor(const CampaignSpec& spec, const CampaignOptions& options)
      : spec_(spec), options_(options) {
    jobs_ = options.jobs > 0 ? options.jobs : spec.jobs;
    timeout_s_ = options.trial_timeout_s > 0.0 ? options.trial_timeout_s
                                               : spec.trial_timeout_s;
    max_retries_ = options.max_retries >= 0 ? options.max_retries
                                            : spec.max_retries;
    lockstep_ = options.shard >= 0 ? options.shard : spec.shard;
  }

  CampaignOutcome run() {
    CampaignOutcome outcome;
    outcome.trials = spec_.trials;

    if (options_.journal_path.empty()) {
      outcome.error = "no journal path";
      return outcome;
    }
    if (options_.require_existing_journal) {
      struct stat st{};
      if (::stat(options_.journal_path.c_str(), &st) != 0) {
        outcome.error = options_.journal_path +
                        ": no journal to resume (use `run` to start)";
        return outcome;
      }
    }

    std::string error;
    if (!journal_.open(options_.journal_path, spec_, &error)) {
      outcome.error = error;
      return outcome;
    }
    outcome.resumed = journal_.completed().size();
    outcome.quarantined = journal_.quarantined();

    for (std::uint64_t i = 0; i < spec_.trials; ++i) {
      if (journal_.completed().count(i) == 0) pending_.push_back(i);
    }

    // Per-trial metrics snapshots are a few KB, so they are ALWAYS
    // recorded: a resume started with --metrics can then merge trials
    // completed by an earlier metrics-less run. Flight recordings can be
    // arbitrarily large, so those only exist when the session asks.
    want_flight_ = obs::flight() != nullptr;
    artifacts_dir_ = options_.journal_path + ".d";
    if (::mkdir(artifacts_dir_.c_str(), 0777) != 0 && errno != EEXIST) {
      outcome.error = artifacts_dir_ + ": cannot create artifacts dir";
      return outcome;
    }

    if (lockstep_ > 1) {
      // In-process lockstep backend: no child process exists, so crash
      // chaos is meaningless here.
      if (options_.chaos_kill_trial >= 0 || options_.chaos_hang_trial >= 0 ||
          options_.chaos_supervisor_kill_after > 0) {
        outcome.error =
            "chaos knobs crash or hang a trial's child process; the "
            "in-process shard backend has none";
        return outcome;
      }
    }

    if (!pending_.empty()) {
      if (lockstep_ > 1) {
        run_shard_backend();
      } else {
        run_process_backend(outcome);
      }
    }

    // Permanently failed trials (threw, retries exhausted, or not
    // journaled), in index order.
    outcome.failed_trials.assign(failed_.begin(), failed_.end());
    outcome.degraded = !outcome.failed_trials.empty();
    outcome.completed = journal_.completed().size();

    merge_artifacts();
    publish_metrics(outcome);

    if (!options_.stats_path.empty()) {
      const std::string body =
          format_campaign_stats(spec_, outcome, journal_.completed());
      if (!write_campaign_stats(options_.stats_path, body, &error)) {
        outcome.error = error;
        return outcome;
      }
    }
    outcome.ok = true;
    return outcome;
  }

 private:
  // Journals one completed trial (fsync'd) unless an earlier run already
  // did; a failed append leaves the trial failed for this run.
  void journal(const TrialResult& result) {
    if (journal_.completed().count(result.index) != 0) return;
    if (!journal_.append(result)) {
      std::fprintf(stderr,
                   "campaign: journal append failed for trial %" PRIu64 "\n",
                   result.index);
      failed_.insert(result.index);
      return;
    }
    if (options_.chaos_supervisor_kill_after > 0 &&
        journal_.appended() >= options_.chaos_supervisor_kill_after) {
      // Chaos: die exactly like a power cut — after the fsync'd append,
      // before anything else. The resume must finish the campaign
      // byte-identically.
      raise(SIGKILL);
    }
  }

  // Process backend: every pending trial runs in its own sim::ForkServer
  // child, at most `jobs` at a time, under ForkServer's failure ladder
  // (heartbeat timeout, SIGKILL + reap, per-trial retry budget with
  // backoff, first-attempt chaos). A child runs run_campaign_trial under
  // fresh sinks and persists <journal>.d/trial_<i>.{met,flt} before its
  // record, so "in the journal" implies "artifacts on disk". Records are
  // journaled as they land, so a supervisor kill loses only the trials
  // still in flight.
  void run_process_backend(CampaignOutcome& outcome) {
    sim::ForkServerOptions fork_options;
    fork_options.jobs = jobs_;
    fork_options.timeout_s = timeout_s_;
    fork_options.max_retries = max_retries_;
    fork_options.flight_ring = options_.flight_ring;
    fork_options.scratch_dir = artifacts_dir_;
    fork_options.chaos_kill_branch =
        static_cast<int>(options_.chaos_kill_trial);
    fork_options.chaos_hang_branch =
        static_cast<int>(options_.chaos_hang_trial);

    // Children record metrics whenever the forking thread has a registry
    // installed, so a session without --metrics lends them this empty one
    // (nothing records into it here). Traces do not cross fork().
    obs::MetricsRegistry lent_metrics;
    sim::TrialObsScope sinks(
        obs::metrics() != nullptr ? obs::metrics() : &lent_metrics, nullptr,
        obs::flight());

    sim::ForkServer server(fork_options);
    server.run(
        std::vector<std::size_t>(pending_.begin(), pending_.end()),
        [this](std::size_t index) {
          return encode_trial_record(run_campaign_trial(spec_, index));
        },
        [this](std::size_t index, const sim::ForkOutcome& settled) {
          TrialResult result;
          std::string why = settled.error;
          if (settled.ok &&
              decode_trial_record(settled.payload, result, &why) &&
              result.index == index) {
            journal(result);
            return;
          }
          std::fprintf(stderr, "campaign: trial %zu failed: %s\n", index,
                       why.c_str());
          failed_.insert(index);
        });
    outcome.retries = server.retries();
    outcome.worker_crashes = server.crashes();
    outcome.worker_timeouts = server.timeouts();
    outcome.workers_spawned = server.forks();
  }

  // In-process lockstep shard backend (spec/option `shard` > 1): pending
  // trials run as fused lockstep groups on the supervisor thread instead
  // of one child process each. Each group of `shard` trials advances
  // through one merged event frontier, sharing the immutable kernel image
  // and pristine digest base (sim/batch.h, sim/shard.h); every trial
  // still runs under fresh per-trial sinks and remains a pure function of
  // (spec, index), so journal, stats, metrics and flight artifacts are
  // byte-identical to any process-backend schedule (CI-gated). There is
  // no process isolation: a throwing trial fails permanently, exactly as
  // in the process backend, and the chaos knobs are refused up front.
  void run_shard_backend() {
    const auto group_size = static_cast<std::size_t>(lockstep_);
    for (std::size_t base = 0; base < pending_.size(); base += group_size) {
      const std::size_t count = std::min(group_size, pending_.size() - base);
      const std::uint64_t* group = pending_.data() + base;

      // Per-slot sinks mirror a process-backend child's private ones:
      // metrics are always recorded, flight only when the session asks.
      std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics(count);
      std::vector<std::unique_ptr<obs::FlightRecorder>> flight(count);
      std::vector<TrialResult> results(count);
      std::deque<bool> completed(count, false);
      std::deque<bool> errored(count, false);
      for (std::size_t j = 0; j < count; ++j) {
        metrics[j] = std::make_unique<obs::MetricsRegistry>();
        if (want_flight_) {
          obs::FlightRecorder::Options fopts;
          fopts.path = sim::trial_flight_path(artifacts_dir_, group[j]);
          fopts.ring = options_.flight_ring;
          flight[j] = std::make_unique<obs::FlightRecorder>(fopts);
        }
      }

      sim::run_lockstep_shard(
          count, sim::Duration::from_sec(1),
          [&](std::size_t j) -> std::unique_ptr<sim::LockstepTrial> {
            return std::make_unique<CampaignLockstepTrial>(
                spec_, group[j], &results[j], &completed[j]);
          },
          [&](std::size_t j, const std::function<void()>& fn) {
            sim::TrialObsScope sinks(metrics[j].get(), nullptr,
                                     flight[j].get());
            fn();
          },
          [&](std::size_t j, std::exception_ptr error) {
            errored[j] = true;
            try {
              if (error) std::rethrow_exception(error);
            } catch (const std::exception& e) {
              std::fprintf(stderr,
                           "campaign: trial %" PRIu64 " failed: %s\n",
                           group[j], e.what());
            } catch (...) {
              std::fprintf(stderr, "campaign: trial %" PRIu64 " failed\n",
                           group[j]);
            }
          });

      for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t index = group[j];
        if (errored[j] || !completed[j] || results[j].index != index) {
          failed_.insert(index);
          continue;
        }
        // Artifacts first, journal second — the same durability order a
        // process-backend child keeps: "in the journal" implies
        // "artifacts on disk".
        bool durable = true;
        if (flight[j] != nullptr && !flight[j]->close()) durable = false;
        if (durable) {
          std::string error;
          if (!metrics[j]->save_binary(
                  sim::trial_metrics_path(artifacts_dir_, index), &error)) {
            std::fprintf(stderr, "campaign: trial %" PRIu64 ": %s\n", index,
                         error.c_str());
            durable = false;
          }
        }
        if (!durable) {
          failed_.insert(index);
          continue;
        }
        journal(results[j]);
      }
    }
  }

  // Folds per-trial obs artifacts into the calling thread's session sinks
  // in strict index order — the cross-process twin of TrialRunner's
  // submission-order merge, and the reason a campaign's --metrics and
  // --flight outputs are byte-identical for any schedule.
  void merge_artifacts() {
    obs::MetricsRegistry* session_metrics = obs::metrics();
    obs::FlightRecorder* session_flight = obs::flight();
    if ((session_metrics == nullptr && session_flight == nullptr) ||
        artifacts_dir_.empty()) {
      return;
    }
    const sim::TrialSeedSeq seeds(spec_.root_seed);
    for (const auto& [index, result] : journal_.completed()) {
      (void)result;
      if (session_metrics != nullptr) {
        const std::string path =
            sim::trial_metrics_path(artifacts_dir_, index);
        std::string error;
        if (!session_metrics->load_merge_binary(path, &error)) {
          std::fprintf(stderr, "campaign: %s (metrics gap)\n", error.c_str());
          ++artifacts_missing_;
        }
      }
      if (session_flight != nullptr) {
        const std::string path = sim::trial_flight_path(artifacts_dir_, index);
        obs::FlightLog log;
        std::string error;
        if (!obs::read_flight_log(path, log, &error)) {
          std::fprintf(stderr, "campaign: %s (flight gap)\n", error.c_str());
          ++artifacts_missing_;
          continue;
        }
        // Same convention as TrialRunner: the parent emits the trial
        // marker, then replays the trial's stream.
        session_flight->record(obs::FlightKind::kTrialBegin, sim::Time::zero(),
                               index, static_cast<int>(index),
                               seeds.seed_for(index));
        obs::replay_flight_log(log, *session_flight);
      }
    }
  }

  void publish_metrics(const CampaignOutcome& outcome) {
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry == nullptr) return;
    // Deterministic facts of the completed campaign: counters, part of
    // the stable snapshot.
    registry->counter("campaign.trials").inc(outcome.trials);
    registry->counter("campaign.trials_completed").inc(outcome.completed);
    registry->counter("campaign.trials_failed")
        .inc(outcome.failed_trials.size());
    // Runtime history (how bumpy the road was): volatile gauges, omitted
    // by --metrics-stable so crash-identity diffs stay byte-exact.
    const auto vgauge = [registry](const char* name, double v) {
      obs::Gauge& g = registry->gauge(name);
      g.set(v);
      g.mark_volatile();
    };
    vgauge("campaign.retries", static_cast<double>(outcome.retries));
    vgauge("campaign.worker_crashes",
           static_cast<double>(outcome.worker_crashes));
    vgauge("campaign.worker_timeouts",
           static_cast<double>(outcome.worker_timeouts));
    vgauge("campaign.workers_spawned",
           static_cast<double>(outcome.workers_spawned));
    vgauge("campaign.trials_resumed", static_cast<double>(outcome.resumed));
    vgauge("campaign.journal_quarantined",
           static_cast<double>(outcome.quarantined));
    vgauge("campaign.artifacts_missing",
           static_cast<double>(artifacts_missing_));
  }

  const CampaignSpec& spec_;
  const CampaignOptions& options_;
  int jobs_ = 1;
  double timeout_s_ = 120.0;
  int max_retries_ = 2;
  int lockstep_ = 0;  // resolved `shard` knob (in-process lockstep size)

  CampaignJournal journal_;
  std::vector<std::uint64_t> pending_;  // not yet journaled, index order
  std::set<std::uint64_t> failed_;
  std::string artifacts_dir_;
  bool want_flight_ = false;
  std::uint64_t artifacts_missing_ = 0;
};

}  // namespace

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  Supervisor supervisor(spec, options);
  return supervisor.run();
}

}  // namespace satin::campaign
