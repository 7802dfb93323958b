// Divergence auditor over flight recordings.
//
// Reads the binary stream written by FlightRecorder and answers the two
// questions the determinism gates ask:
//  * stats  — what does this recording contain (per-kind counts, time
//             span, chain hash, drops)?
//  * diff   — are two recordings identical, and if not, where is the
//             FIRST diverging commit, with surrounding context from both
//             streams so the post-mortem starts at the cause, not the
//             10^6th downstream symptom?
//
// The jobs=1-vs-8, digest-cache on/off and faults-off-vs-baseline
// identity gates all reduce to "diff reports zero divergence"; the
// negative gate (an armed fault plan MUST diverge) reduces to "diff
// locates a first divergence".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight/recorder.h"

namespace satin::obs {

struct FlightLog {
  std::vector<FlightRecord> records;  // footer excluded
  // Footer bookkeeping (zero/false when the footer is missing).
  std::uint64_t commits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t chain_hash = 0;
  bool ring = false;
  bool has_footer = false;
};

// Loads a recording; returns false (and sets *error when given) on a
// missing file, zero-length or truncated-header file, bad magic/version
// or a torn record — each with a distinct diagnostic naming the cause. A
// missing footer is tolerated (has_footer = false) so crashed runs still
// dump.
bool read_flight_log(const std::string& path, FlightLog& out,
                     std::string* error = nullptr);

// Appends trial `index`'s recording at `path` to `out` the way every
// per-trial merge does: a kTrialBegin marker (actor = index, payload =
// `seed`), then the trial's records re-recorded in commit order, then its
// footer's drop count — record for record the chain-hash evolution the
// original commits produced. Streams the file, so memory does not grow
// with its length. Fails (returning false, with nothing recorded, the
// marker included) wherever read_flight_log would. TrialRunner's spill
// merge, ForkServer::merge_obs and the campaign supervisor fold per-trial
// files into the session stream with it, in trial-index order.
bool append_trial_flight_file(FlightRecorder& out, std::uint64_t index,
                              std::uint64_t seed, const std::string& path,
                              std::string* error = nullptr);

struct FlightStats {
  std::uint64_t total = 0;
  std::array<std::uint64_t, 16> by_kind{};  // indexed by FlightKind value
  std::uint64_t other_kinds = 0;            // kinds outside the enum range
  std::int64_t first_t_ps = 0;
  std::int64_t last_t_ps = 0;
};

FlightStats compute_flight_stats(const FlightLog& log);

// One human-readable line per record: "t=<ps> kind seq=<n> actor=<a>
// payload=<hex>".
std::string format_flight_record(const FlightRecord& record);

struct FlightDivergence {
  bool diverged = false;
  // Index of the first differing record (or the length of the shorter
  // stream when one is a strict prefix of the other).
  std::size_t first_index = 0;
  // Human-readable report: identity summary, or the first divergence with
  // `context` records of surrounding context from both streams.
  std::string report;
};

FlightDivergence diff_flight_logs(const FlightLog& a, const FlightLog& b,
                                  std::size_t context = 5);

}  // namespace satin::obs
