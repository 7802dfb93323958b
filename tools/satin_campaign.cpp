// satin_campaign — declarative Monte-Carlo campaign runner.
//
//   satin_campaign run      SPEC.json [flags]   run (creates/extends journal)
//   satin_campaign resume   SPEC.json [flags]   like run, but refuses to start
//                                               without an existing journal
//   satin_campaign status   JOURNAL             progress peek (no spec needed)
//   satin_campaign validate SPEC.json           parse + validate, print hash
//
// Flags for run/resume (plus ObsSession's --metrics= / --metrics-stable /
// --flight= / --trace=):
//   --journal=PATH    journal file     (default: SPEC + ".journal")
//   --out=PATH        stats JSON       (default: SPEC + ".stats.json")
//   --jobs=N          concurrent trial child processes (default: spec's
//                     `jobs`)
//   --timeout=SECS    per-trial wedge timeout (default: spec's)
//   --max-retries=N   per-trial retry budget  (default: spec's)
//   --chaos-kill-trial=I / --chaos-hang-trial=I / --chaos-kill-after=N
//                     deterministic crash injection for the CI audit
//
// A malformed numeric flag value exits 2, and so does any argument run
// does not read (a bench flag such as --batch=, or a typo): it is named
// instead of being silently ignored. --faults= is refused by name, since
// ObsSession would swallow it; a trial's fault plan is the spec's.
//
// Exit codes: 0 = campaign complete, 2 = usage / spec / journal error,
// 3 = campaign finished DEGRADED (some trials permanently failed; partial
// stats were still written, marked "degraded": true).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/journal.h"
#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "obs/session.h"

namespace {

using satin::campaign::CampaignJournal;
using satin::campaign::CampaignOptions;
using satin::campaign::CampaignOutcome;
using satin::campaign::CampaignSpec;

int usage() {
  std::fprintf(stderr,
               "usage: satin_campaign run      SPEC.json [--journal=P] "
               "[--out=P] [--jobs=N] "
               "[--timeout=S] [--max-retries=N]\n"
               "       satin_campaign resume   SPEC.json [same flags]\n"
               "       satin_campaign status   JOURNAL\n"
               "       satin_campaign validate SPEC.json\n");
  return 2;
}

bool load_spec(const char* path, CampaignSpec& spec) {
  try {
    spec = satin::campaign::load_campaign_spec(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "satin_campaign: %s\n", e.what());
    return false;
  }
  return true;
}

int cmd_status(const char* journal_path) {
  CampaignJournal::Status status;
  std::string error;
  if (!CampaignJournal::read_status(journal_path, status, &error)) {
    std::fprintf(stderr, "satin_campaign: %s\n", error.c_str());
    return 2;
  }
  std::printf("journal      %s\n", journal_path);
  std::printf("spec_hash    %016" PRIx64 "\n", status.spec_hash);
  std::printf("root_seed    %" PRIu64 "\n", status.root_seed);
  std::printf("trials       %" PRIu64 "\n", status.trials);
  std::printf("completed    %" PRIu64 "\n", status.completed);
  std::printf("remaining    %" PRIu64 "\n",
              status.trials > status.completed
                  ? status.trials - status.completed
                  : 0);
  std::printf("quarantined  %" PRIu64 "\n", status.quarantined);
  return 0;
}

int cmd_validate(const char* spec_path) {
  CampaignSpec spec;
  if (!load_spec(spec_path, spec)) return 2;
  std::printf("ok: %s\n", spec_path);
  std::printf("name       %s\n", spec.name.c_str());
  std::printf("spec_hash  %016" PRIx64 "\n", spec.content_hash());
  std::printf("trials     %" PRIu64 "\n", spec.trials);
  std::printf("root_seed  %" PRIu64 "\n", spec.root_seed);
  std::printf("jobs       %d\n", spec.jobs);
  if (!spec.faults.empty()) {
    std::printf("faults     %s\n", spec.faults.c_str());
  }
  return 0;
}

// `jobs_override` carries ObsSession's parsed --jobs= value (ObsSession
// consumes that flag before the subcommand sees argv); 0 = flag absent,
// defer to the spec.
int cmd_run(int argc, char** argv, bool resume, int jobs_override) {
  using satin::obs::parse_number;
  using satin::obs::take_flag;
  CampaignOptions options;
  options.require_existing_journal = resume;
  options.jobs = jobs_override;
  options.journal_path = take_flag(argc, argv, "journal");
  options.stats_path = take_flag(argc, argv, "out");
  const std::string timeout = take_flag(argc, argv, "timeout");
  const std::string retries = take_flag(argc, argv, "max-retries");
  const std::string kill_trial = take_flag(argc, argv, "chaos-kill-trial");
  const std::string hang_trial = take_flag(argc, argv, "chaos-hang-trial");
  const std::string kill_after = take_flag(argc, argv, "chaos-kill-after");
  if (!timeout.empty()) {
    options.trial_timeout_s = parse_number<double>("--timeout", timeout);
  }
  if (!retries.empty()) {
    options.max_retries = parse_number<int>("--max-retries", retries);
  }
  if (!kill_trial.empty()) {
    options.chaos_kill_trial =
        parse_number<std::int64_t>("--chaos-kill-trial", kill_trial);
  }
  if (!hang_trial.empty()) {
    options.chaos_hang_trial =
        parse_number<std::int64_t>("--chaos-hang-trial", hang_trial);
  }
  if (!kill_after.empty()) {
    options.chaos_supervisor_kill_after =
        parse_number<std::uint64_t>("--chaos-kill-after", kill_after);
  }
  if (argc < 2) return usage();
  satin::obs::refuse_leftover_args(argc, argv, /*positional=*/1);
  const std::string spec_path = argv[1];

  CampaignSpec spec;
  if (!load_spec(spec_path.c_str(), spec)) return 2;
  if (options.journal_path.empty()) {
    options.journal_path = spec_path + ".journal";
  }
  if (options.stats_path.empty()) {
    options.stats_path = spec_path + ".stats.json";
  }

  const CampaignOutcome outcome = satin::campaign::run_campaign(spec, options);
  if (!outcome.ok) {
    std::fprintf(stderr, "satin_campaign: %s\n", outcome.error.c_str());
    return 2;
  }
  std::printf("campaign     %s\n", spec.name.c_str());
  std::printf("jobs         %d\n",
              options.jobs > 0 ? options.jobs : spec.jobs);
  std::printf("trials       %" PRIu64 "\n", outcome.trials);
  std::printf("completed    %" PRIu64 "\n", outcome.completed);
  std::printf("resumed      %" PRIu64 "\n", outcome.resumed);
  std::printf("quarantined  %" PRIu64 "\n", outcome.quarantined);
  std::printf("retries      %" PRIu64 "\n", outcome.retries);
  std::printf("crashes      %" PRIu64 " (%" PRIu64 " timeouts)\n",
              outcome.worker_crashes, outcome.worker_timeouts);
  std::printf("workers      %" PRIu64 " spawned\n", outcome.workers_spawned);
  std::printf("stats        %s\n", options.stats_path.c_str());
  if (outcome.degraded) {
    std::fprintf(stderr,
                 "satin_campaign: DEGRADED — %zu trial(s) permanently "
                 "failed; partial stats written\n",
                 outcome.failed_trials.size());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // ObsSession would swallow --faults= and nothing would read it.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      std::fprintf(stderr,
                   "satin_campaign: %s is not a campaign flag: the fault "
                   "plan is the spec's \"faults\" key\n",
                   argv[i]);
      return 2;
    }
  }
  // Installs --metrics= / --metrics-stable / --flight= / --trace= sinks
  // for this (supervisor) thread; the campaign merges per-trial artifacts
  // into them in index order before the session flushes at exit.
  satin::obs::ObsSession session(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "run" || cmd == "resume") {
    // Shift the subcommand out so cmd_run sees SPEC at argv[1].
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
    argv[argc] = nullptr;
    return cmd_run(argc, argv, cmd == "resume", session.jobs(0));
  }
  if (cmd == "status") {
    if (argc != 3) return usage();
    return cmd_status(argv[2]);
  }
  if (cmd == "validate") {
    if (argc != 3) return usage();
    return cmd_validate(argv[2]);
  }
  return usage();
}
