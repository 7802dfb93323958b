// Copy-on-write trial forking: every supervised child process in the tree.
//
// Every sweep ladder re-simulates an identical warm prefix (platform
// construction, trusted boot, prober deployment, ramp) for every branch
// point, even though only one knob differs past the fork. ForkServer
// turns the kernel's fork() into the snapshot mechanism: the caller runs
// the shared prefix ONCE in-process, then run() fork()s one child per
// trial index. Copy-on-write pages make the engine wheel/heap, slab event
// pool, hw::Memory + write generations, digest cache and OS/attacker
// state free to clone — no serialization of type-erased callbacks, no
// checkpoint format, the process image IS the snapshot. Each child
// applies what is its own past the fork (in bench_race_analysis, the
// spot duel's trace offset), runs to completion, and streams a
// checksummed result record back over a pipe. That bench's sweep
// (--branches=N) goes through run_fork_groups(), the one group loop;
// campaign trials (campaign/supervisor.h) are the same machinery with no
// prefix: one fresh-sink child per pending trial, journaled from
// on_settled.
//
// ForkServer children are one of the two ways a trial runs; the other is
// TrialRunner's thread pool (sim/parallel.h). A child never has a
// ShardContext installed, so it builds everything per trial.
//
// Observability contract (the part that keeps forked output
// byte-identical to the unforked oracle):
//  * fresh-sink mode (inherit_sinks = false, the zero-length-prefix
//    oracle path): each child installs a private MetricsRegistry +
//    FlightRecorder via sim::TrialObsScope — exactly what a TrialRunner
//    worker thread would hold — and persists them as SATNMET1 / SATNFLT1
//    artifacts (trial_<i>.met / trial_<i>.flt) before sending its result
//    record. A sink exists in the child only when the forking thread has
//    one installed;
//  * inherit-sink mode (inherit_sinks = true, the warm-prefix path, set
//    only by run_fork_groups): per-group sinks are installed BEFORE the
//    prefix runs; each child's COW copy already contains the prefix's
//    records and simply keeps recording, so the per-branch stream equals
//    what an unforked trial would have produced, prefix included;
//  * merge_obs() then folds the artifacts into the caller's sinks in the
//    order of run()'s indices with the same kTrialBegin markers
//    TrialRunner's submission-order merge emits — so stdout,
//    --metrics-stable and the flight chain hash are independent of the
//    worker count. Callers that merge by themselves (the campaign folds
//    its journal's trials in index order, resumed ones included) simply
//    never call it, and the artifacts stay on disk.
//
// Failure ladder (the only one in the tree): a child that crashes (any
// exit before its record), wedges past the heartbeat timeout, or sends a
// torn record is SIGKILLed, reaped, its partial artifacts deleted, and
// re-forked from the unchanged parent image with exponential backoff, up
// to max_retries times; a child that reports a deterministic exception
// ("E" record) is NOT retried. run_fork_groups() rethrows the first
// failed index's error once its group has settled and merged.
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
  // Max concurrent children; <= 0 means one per hardware thread.
  int jobs = 0;
  // Heartbeat/result deadline per attempt (host seconds); a silent child
  // past this is SIGKILLed and retried.
  double timeout_s = 120.0;
  // Re-forks per index after a crash/wedge/torn record.
  int max_retries = 2;
  // Ring capacity of each fresh per-child FlightRecorder (fresh-sink
  // mode only; inherited recorders keep their own configuration).
  std::size_t flight_ring = 0;
  // Children keep the caller-installed sinks (their COW copies already
  // hold the warm prefix's records) instead of installing fresh ones.
  // run_fork_groups() sets it for warm groups; nothing else should.
  bool inherit_sinks = false;
  // Artifacts directory; "" = a private mkdtemp() dir, removed after the
  // merge.
  std::string scratch_dir;
  // kTrialBegin payload per index (TrialRunner uses the trial seed);
  // null = 0.
  std::function<std::uint64_t(std::size_t)> marker_seed;

  // Chaos knobs (failure-path tests and the campaign crash audit; -1 =
  // off). Each fires on the FIRST attempt of the given index only, so the
  // retry must succeed.
  int chaos_kill_branch = -1;  // child SIGKILLs itself after the heartbeat
  int chaos_hang_branch = -1;  // child wedges silently (timeout path)
  int chaos_torn_branch = -1;  // child corrupts its record's checksum
};

struct ForkOutcome {
  bool ok = false;
  std::string payload;   // body()'s return value
  std::string error;     // set when !ok
  int attempts = 0;      // children forked for this index
  // The child persisted obs artifacts (an "R" or "E" record arrived after
  // it saved its sinks); crashes leave nothing mergeable.
  bool has_artifacts = false;
};

// Per-index obs artifact paths under an artifacts directory: what
// ForkServer children persist, and what campaign journals' `.d`
// directories hold.
std::string trial_metrics_path(const std::string& dir, std::uint64_t index);
std::string trial_flight_path(const std::string& dir, std::uint64_t index);

// Creates a private artifacts directory under $TMPDIR (default /tmp) with
// mkdtemp(); returns its path, or "" on failure. The caller removes it.
std::string make_trial_scratch_dir();

class ForkServer {
 public:
  using Body = std::function<std::string(std::size_t)>;
  using Settled = std::function<void(std::size_t, const ForkOutcome&)>;

  explicit ForkServer(ForkServerOptions options = {});
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  // Forks one COW child per entry of `indices` (distinct global trial
  // indices) off the CURRENT process image; body(index) runs in the child
  // and its return value (newline-free) travels back checksummed. body
  // must not write to stdout/stderr. Outcomes come back in `indices`
  // order. on_settled, when given, runs in the parent as each index
  // resolves — an "R" or "E" record, or its retry budget exhausted —
  // exactly once per index, before run() returns. Single-use: one run()
  // per server. Failures are reported in the outcomes, never thrown.
  std::vector<ForkOutcome> run(const std::vector<std::size_t>& indices,
                               const Body& body,
                               const Settled& on_settled = nullptr);

  // Folds per-index artifacts into the CURRENTLY installed thread sinks
  // in run()'s index order, bracketed by kTrialBegin markers, then
  // removes them. In inherit-sink mode call this AFTER dropping the
  // warm-prefix TrialObsScope, so the merge targets the session sinks,
  // not the group's.
  void merge_obs();

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

  bool spawn(std::size_t pos, std::vector<Slot>& active,
             std::vector<int>& attempts);
  [[noreturn]] void child_main(std::size_t index, bool first_attempt, int fd);
  void remove_artifacts(std::size_t index) const;

  ForkServerOptions options_;
  std::vector<std::size_t> indices_;
  std::vector<ForkOutcome> outcomes_;  // parallel to indices_
  const Body* child_body_ = nullptr;
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

// A warm group's prefix: runs once per group in the parent and returns
// the body the group's children run. The body owns whatever warm state
// the prefix built (capture it by shared_ptr), so the state dies with
// the body, still under the group's sinks.
using GroupPrefix = std::function<ForkServer::Body(std::size_t base)>;

// The fork sweep (--branches=N): runs trials [0, trials) as ForkServer
// children in consecutive groups of `group_size` (the tail group takes
// what is left), one group after another, and returns the payloads in
// index order.
//  * warm_prefix == nullptr (the zero-prefix oracle): each child runs
//    branch(index) from scratch under fresh sinks;
//  * otherwise (the warm-prefix path): per group, fresh group sinks are
//    created when the session records (metrics, flight with the
//    options' ring), warm_prefix(base) runs under them, and the
//    children run its returned body with inherit_sinks; `branch` is
//    unused.
// Each group's artifacts merge into the session sinks (merge_obs, after
// the group sinks are gone) before the next group starts. The first
// failed index, in index order, is rethrown as std::runtime_error once
// its group has merged; later groups never run.
std::vector<std::string> run_fork_groups(
    std::size_t trials, std::size_t group_size,
    const ForkServerOptions& options, const ForkServer::Body& branch,
    const GroupPrefix& warm_prefix = nullptr);

}  // namespace satin::sim
