// Batched lockstep trial execution.
//
// A duel trial spends most of its cycles drawing calibrated jitter; the
// block draw pipeline (sim/rng.h) makes those draws cheap by
// precomputing them in vectorized blocks. TrialRunner::run_sharded
// (sim/parallel.h) groups a sweep's trials into shards of K: a worker
// owns a shard, and the shard's trials advance in lockstep — round-robin,
// one time quantum each — so K trials' worth of per-trial stream state
// stays resident and every refill amortizes across a long run of
// consumption (structure-of-arrays at the shard level: the state that
// varies per trial lives in arrays indexed by shard slot, walked in one
// engine pass per quantum).
//
// Identity is the design constraint, not an afterthought: each trial owns
// its engine and obs sinks, run_for slicing is inert in the event engine,
// and the submission-order merge is shared with TrialRunner::run() — so
// --batch=K output is byte-identical to --batch=1 for every K, which CI
// enforces. The unsharded path (--batch=1) stays the run of record.
// --batch=K is a flag of the workloads where shards share real work:
// bench_race_analysis's spot-duel ladder and bench_satin_detection's
// --clean-rounds replicas. The §VI-B1 duel sweep (run_duel_sweep) runs on
// the thread pool alone; sharing is under 1% of a 190-round duel.
//
// Lockstep shards are one of the three ways a trial runs: TrialRunner's
// thread pool (run), lockstep shards (run_sharded), and ForkServer
// children (sim/fork.h: fork sweeps and campaign trials).
#pragma once

#include "sim/time.h"

namespace satin::sim {

class Engine;

// One trial run_sharded can interleave with its shard-mates. Calls are
// always made under the trial's own obs sinks; the trial must tolerate
// its simulated time advancing in quanta (pure event-engine trials do by
// construction).
class LockstepTrial {
 public:
  virtual ~LockstepTrial() = default;
  // True once the trial has nothing left to simulate. Checked before and
  // after every advance().
  virtual bool done() const = 0;
  // Advance simulated time by (at most) one quantum.
  virtual void advance(Duration quantum) = 0;
  // Called exactly once, after done() turns true: produce results (write
  // them wherever the factory wired them to go).
  virtual void finish() = 0;
  // Opt-in contract for the fused engine pass: return the trial's event
  // engine IFF advance(q) is exactly engine->run_until(now + q) — no
  // request_stop use, no per-advance side work. The fused shard loop then
  // drives the engine directly in merged-frontier bursts (observationally
  // identical: run_until slicing is inert, see sim/engine.h). Return
  // nullptr (the default) to always take the per-trial fallback path.
  virtual Engine* fused_engine() { return nullptr; }
};

}  // namespace satin::sim
