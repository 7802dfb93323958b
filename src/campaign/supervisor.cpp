#include "campaign/supervisor.h"

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <map>
#include <set>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/trial.h"
#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
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

class Supervisor {
 public:
  Supervisor(const CampaignSpec& spec, const CampaignOptions& options)
      : spec_(spec), options_(options) {
    jobs_ = options.jobs > 0 ? options.jobs : spec.jobs;
    timeout_s_ = options.trial_timeout_s > 0.0 ? options.trial_timeout_s
                                               : spec.trial_timeout_s;
    max_retries_ = options.max_retries >= 0 ? options.max_retries
                                            : spec.max_retries;
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

    artifacts_dir_ = options_.journal_path + ".d";
    if (::mkdir(artifacts_dir_.c_str(), 0777) != 0 && errno != EEXIST) {
      outcome.error = artifacts_dir_ + ": cannot create artifacts dir";
      return outcome;
    }

    if (!pending_.empty()) run_trials(outcome);

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

  // Every pending trial runs in its own sim::ForkServer child, at most
  // `jobs` at a time, under ForkServer's failure ladder (heartbeat
  // timeout, SIGKILL + reap, per-trial retry budget with backoff,
  // first-attempt chaos). A child runs run_campaign_trial under fresh
  // sinks and persists <journal>.d/trial_<i>.{met,flt} before its record,
  // so "in the journal" implies "artifacts on disk". Records are journaled
  // as they land, so a supervisor kill loses only the trials still in
  // flight.
  void run_trials(CampaignOutcome& outcome) {
    sim::ForkServerOptions fork_options;
    fork_options.jobs = jobs_;
    fork_options.timeout_s = timeout_s_;
    fork_options.max_retries = max_retries_;
    fork_options.scratch_dir = artifacts_dir_;
    fork_options.chaos_kill_branch =
        static_cast<int>(options_.chaos_kill_trial);
    fork_options.chaos_hang_branch =
        static_cast<int>(options_.chaos_hang_trial);

    // Per-trial metrics snapshots are a few KB, so they are ALWAYS
    // recorded: a resume started with --metrics can then merge trials
    // completed by an earlier metrics-less run. Children record metrics
    // whenever the forking thread has a registry installed, so a session
    // without --metrics lends them this empty one (nothing records into
    // it here). Flight recordings can be arbitrarily large, so those only
    // exist when the session asks. Traces do not cross fork().
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
        std::string error;
        if (!obs::append_trial_flight_file(
                *session_flight, index, seeds.seed_for(index),
                sim::trial_flight_path(artifacts_dir_, index), &error)) {
          std::fprintf(stderr, "campaign: %s (flight gap)\n", error.c_str());
          ++artifacts_missing_;
        }
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

  CampaignJournal journal_;
  std::vector<std::uint64_t> pending_;  // not yet journaled, index order
  std::set<std::uint64_t> failed_;
  std::string artifacts_dir_;
  std::uint64_t artifacts_missing_ = 0;
};

}  // namespace

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  Supervisor supervisor(spec, options);
  return supervisor.run();
}

}  // namespace satin::campaign
