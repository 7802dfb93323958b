// One campaign trial: execution and the journal record codec.
//
// A trial's entire input is (CampaignSpec, index) — the per-trial seed is
// TrialSeedSeq(root_seed).seed_for(index), the fault plan optionally
// re-seeds from the same derivation — so run_campaign_trial() is a pure
// function of its arguments. That purity is what makes the runtime's
// crash story trivial: a retried or resumed trial is just the same
// function call again, and byte-identical output follows.
//
// The journal stores one line per completed trial. Doubles travel as raw
// bit patterns (hex), not decimal, so encode(decode(line)) == line and a
// resumed aggregation sees exactly the bits the original child computed.
// Every line carries an FNV-1a checksum over its body; a line whose
// checksum fails (torn write, bit rot, hostile edit) is quarantined by
// the journal loader and the trial simply re-runs.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.h"
#include "scenario/experiments.h"

namespace satin::campaign {

struct TrialResult {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  scenario::DuelReport report;
  std::uint64_t faults_injected = 0;
};

// "R i=<n> seed=<hex> ... crc=<hex>", newline excluded. Field order is
// fixed; the checksum covers everything before " crc=".
std::string encode_trial_record(const TrialResult& result);

// Strict decode: returns false (with a one-line reason in *error when
// given) on a bad prefix, missing/misordered field, malformed value or
// checksum mismatch. Never half-fills *out on failure.
bool decode_trial_record(const std::string& line, TrialResult& out,
                         std::string* error = nullptr);

// Everything trial `index` of `spec` runs with (run_campaign_trial's
// inputs, exposed so tests can check the derivations directly):
//  * seed = TrialSeedSeq(root_seed).seed_for(index);
//  * platform seed = seed, except trial 0 keeps a spec-pinned
//    platform.seed (the run-of-record convention);
//  * with faults_reseed, the injector seed becomes plan.seed ^ seed so
//    every trial rolls its own storm, still reproducibly.
struct TrialInputs {
  std::uint64_t seed = 0;
  scenario::ScenarioConfig scenario;
  std::string faults;
};
TrialInputs derive_trial_inputs(const CampaignSpec& spec, std::uint64_t index);

// Runs trial `index` of `spec` (inputs from derive_trial_inputs) to
// completion in the calling thread, against whatever obs sinks are
// installed. Throws on scenario construction or duel failure; the campaign
// fails that trial at once (it would throw again on any retry), never
// journaling a half-recorded one.
TrialResult run_campaign_trial(const CampaignSpec& spec, std::uint64_t index);

}  // namespace satin::campaign
