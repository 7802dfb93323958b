// Copy-on-write trial forking: prefix-shared branch exploration.
//
// Every sweep ladder re-simulates an identical warm prefix (platform
// construction, trusted boot, prober deployment, ramp) for every branch
// point, even though only one knob differs past the fork. ForkServer
// turns the kernel's fork() into the snapshot mechanism: the caller runs
// the shared prefix ONCE in-process, then run() fork()s one child per
// branch. Copy-on-write pages make the engine wheel/heap, slab event
// pool, hw::Memory + write generations, digest cache and OS/attacker
// state free to clone — no serialization of type-erased callbacks, no
// checkpoint format, the process image IS the snapshot. Each child
// applies its branch's delta (an attacker offset, a SATIN knob, a seed
// perturbation), runs to completion, and streams a checksummed result
// record back over a pipe.
//
// Observability contract (the part that keeps forked output
// byte-identical to the unforked oracle):
//  * fresh-sink mode (inherit_sinks = false, the zero-length-prefix
//    oracle path): each child installs a private MetricsRegistry +
//    FlightRecorder via sim::TrialObsScope — exactly what a TrialRunner
//    worker thread would hold — and persists them as SATNMET1 / SATNFLT1
//    artifacts before sending its result record;
//  * inherit-sink mode (inherit_sinks = true, the warm-prefix path): the
//    caller installs per-group sinks BEFORE running the prefix; each
//    child's COW copy already contains the prefix's records and simply
//    keeps recording, so the per-branch stream equals what an unforked
//    trial would have produced, prefix included;
//  * merge_obs() then folds the artifacts into the caller's sinks in
//    strict branch-index order with the same kTrialBegin markers
//    TrialRunner's submission-order merge emits — so stdout,
//    --metrics-stable and the flight chain hash are independent of the
//    branch-worker count.
//
// Failure ladder (the supervisor pattern from campaign/supervisor.cpp):
// a child that crashes (any exit before its record), wedges past the
// heartbeat timeout, or sends a torn record is SIGKILLed, reaped, and
// re-forked from the unchanged parent image with exponential backoff, up
// to max_retries times; a child that reports a deterministic exception
// ("E" record) is NOT retried. run_collect() rethrows the lowest-index
// branch error after every branch has settled, mirroring TrialRunner.
//
// Children never touch the parent's stdout/stderr buffers (flushed
// before each fork; children write their pipe with raw write() and leave
// with _exit()), and the parent is expected to hold no running threads
// across run() — fork replaces thread-pool parallelism on this path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace satin::sim {

struct ForkServerOptions {
  // Max concurrent branch children; <= 0 means one per hardware thread.
  int jobs = 0;
  // Heartbeat/result deadline per attempt (host seconds); a silent child
  // past this is SIGKILLed and retried.
  double timeout_s = 120.0;
  // Re-forks per branch after a crash/wedge/torn record.
  int max_retries = 2;
  // Ring capacity of each fresh per-branch FlightRecorder (fresh-sink
  // mode only; inherited recorders keep their own configuration).
  std::size_t flight_ring = 0;
  // Children keep the caller-installed sinks (their COW copies already
  // hold the warm prefix's records) instead of installing fresh ones.
  bool inherit_sinks = false;
  // Artifacts directory; "" = a private mkdtemp() dir, removed after the
  // merge.
  std::string scratch_dir;
  // Global index of branch 0 — merge markers and marker_seed use
  // index_base + branch, so a branch group embedded in a larger sweep
  // reproduces the sweep's own kTrialBegin sequence.
  std::size_t index_base = 0;
  // kTrialBegin payload per GLOBAL index (TrialRunner uses the trial
  // seed); null = 0.
  std::function<std::uint64_t(std::size_t)> marker_seed;

  // Chaos knobs (failure-path tests; -1 = off). Each fires on the FIRST
  // attempt of the given branch only, so the retry must succeed.
  int chaos_kill_branch = -1;  // child SIGKILLs itself after the heartbeat
  int chaos_hang_branch = -1;  // child wedges silently (timeout path)
  int chaos_torn_branch = -1;  // child corrupts its record's checksum
};

struct ForkOutcome {
  bool ok = false;
  std::string payload;   // body()'s return value
  std::string error;     // set when !ok
  int attempts = 0;      // children forked for this branch
  // Branch produced obs artifacts (an "R" or "E" record arrived after the
  // child persisted its sinks); crashes leave nothing mergeable.
  bool has_artifacts = false;
};

class ForkServer {
 public:
  explicit ForkServer(ForkServerOptions options = {});
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  // Forks one COW child per branch in [0, branches) off the CURRENT
  // process image; body(branch) runs in the child and its return value
  // (newline-free) travels back checksummed. body must not write to
  // stdout/stderr. Single-use: one run() per server. Branch failures are
  // reported in the outcomes, never thrown.
  std::vector<ForkOutcome> run(
      std::size_t branches, const std::function<std::string(std::size_t)>& body);

  // Folds per-branch artifacts into the CURRENTLY installed thread sinks
  // in branch-index order, bracketed by kTrialBegin markers, then removes
  // them. In inherit-sink mode call this AFTER dropping the warm-prefix
  // TrialObsScope, so the merge targets the session sinks, not the
  // group's.
  void merge_obs();

  // run() + merge_obs() + rethrow of the lowest-index branch error;
  // returns the payloads in branch order. The convenience wrapper for
  // callers with TrialRunner-style error semantics.
  std::vector<std::string> run_collect(
      std::size_t branches, const std::function<std::string(std::size_t)>& body);

  // Host wall-clock spent inside run().
  double wall_seconds() const { return wall_seconds_; }
  // Children forked (attempts, across retries), and the failure ladder's
  // bookkeeping.
  std::uint64_t forks() const { return forks_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }

  // FNV-1a checksum used for result records (exposed for tests).
  static std::uint64_t record_checksum(const std::string& payload);

 private:
  struct Slot;

  bool spawn(std::size_t branch, std::vector<Slot>& active,
             std::vector<int>& attempts);
  [[noreturn]] void child_main(std::size_t branch, bool first_attempt, int fd,
                               const std::function<std::string(std::size_t)>& body);
  std::string metrics_path_for(std::size_t branch) const;
  std::string flight_path_for(std::size_t branch) const;
  void remove_artifacts(std::size_t branch) const;

  ForkServerOptions options_;
  std::vector<ForkOutcome> outcomes_;
  const std::function<std::string(std::size_t)>* child_body_ = nullptr;
  std::string scratch_;       // owned mkdtemp dir ("" when caller-provided)
  std::string artifacts_dir_; // scratch_ or options_.scratch_dir
  bool want_metrics_ = false;
  bool want_flight_ = false;
  bool ran_ = false;
  bool merged_ = false;
  double wall_seconds_ = 0.0;
  std::uint64_t forks_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace satin::sim
