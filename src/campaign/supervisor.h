// Campaign supervisor: process-isolated fan-out with crash identity.
//
// The supervisor runs every pending trial index as one sim::ForkServer
// child (sim/fork.h), at most `jobs` at a time. A child runs its trial
// (campaign/trial.h) against private per-trial obs sinks, persists the
// obs artifacts, and sends back a checksummed result record, which the
// supervisor validates and appends to the journal (fsync'd) as it lands,
// before counting the trial done. A campaign trial runs only as such a
// child: the chaos knobs below always have a process to crash.
//
// Failure model — ForkServer's ladder, in order of escalation:
//  * child crash (any exit before its record, SIGKILL included) or torn
//    record — the trial is re-forked, up to max_retries times, with
//    exponential backoff;
//  * child wedge — no heartbeat ("B <idx>") or result within
//    trial_timeout_s gets the child SIGKILLed, then the crash path;
//  * a trial that throws fails at once (an "E" record), with no retry:
//    the trial is a pure function of (spec, index), so a retry would
//    throw again;
//  * retries exhausted / trial threw — the campaign still emits its
//    stats, with `degraded: true` and the failed trial list, instead of
//    hanging or dying empty-handed.
//
// Crash identity: trials are pure functions of (spec, index) and
// aggregation is strictly index-ordered, so ANY schedule — jobs count,
// crashes, retries, SIGKILL + resume — ends in
// byte-identical stats and (stable) metrics. CI enforces this literally,
// with a chaos-injected run diffed against a jobs=1 uninterrupted one.
// The chaos_* knobs exist for that gate: they make a trial's child kill
// or hang itself on its FIRST attempt, and the supervisor SIGKILL itself
// after N journal appends — deterministic crashes, no sleep-and-hope
// process hunting in CI scripts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "campaign/spec.h"

namespace satin::campaign {

struct CampaignOptions {
  std::string journal_path;       // required
  std::string stats_path;         // "" = don't write stats
  // Runtime overrides; 0/-1 = take the spec's value. Never part of the
  // spec content hash, so a resume may change them freely.
  int jobs = 0;
  double trial_timeout_s = 0.0;
  int max_retries = -1;
  // `resume` refuses to start a fresh journal; `run` creates one.
  bool require_existing_journal = false;
  // Chaos knobs (CI crash audits; -1 / 0 = off).
  std::int64_t chaos_kill_trial = -1;   // this trial's child SIGKILLs
                                        // itself on its first attempt
  std::int64_t chaos_hang_trial = -1;   // this trial's child hangs on its
                                        // first attempt (timeout path)
  std::uint64_t chaos_supervisor_kill_after = 0;  // raise(SIGKILL) after
                                                  // this many appends
};

struct CampaignOutcome {
  bool ok = false;          // campaign ran (possibly degraded)
  bool degraded = false;    // some trials failed permanently
  std::string error;        // set when !ok

  std::uint64_t trials = 0;
  std::uint64_t completed = 0;
  std::uint64_t resumed = 0;      // completed trials replayed from journal
  std::uint64_t quarantined = 0;  // damaged journal lines dropped on open
  std::vector<std::uint64_t> failed_trials;

  // Runtime (host-dependent) bookkeeping; exported as volatile
  // campaign.* gauges so --metrics-stable snapshots stay identical
  // across crash histories.
  std::uint64_t retries = 0;          // re-forks after a failed attempt
  std::uint64_t worker_crashes = 0;   // failed attempts (timeouts included)
  std::uint64_t worker_timeouts = 0;
  std::uint64_t workers_spawned = 0;  // children forked, retries included
};

// Runs (or resumes) a campaign. Journal and stats writes, child process
// lifecycle, obs artifact merging into the CALLING thread's installed
// sinks, and campaign.* metrics all happen here. Returns rather than
// throws: outcome.ok=false carries the reason.
CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options);

// Deterministic stats JSON (schema satin-campaign-stats/1), written
// crash-safe via temp file + rename. Exposed for tests.
std::string format_campaign_stats(const CampaignSpec& spec,
                                  const CampaignOutcome& outcome,
                                  const std::map<std::uint64_t, TrialResult>&
                                      completed);
bool write_campaign_stats(const std::string& path, const std::string& body,
                          std::string* error);

}  // namespace satin::campaign
