// Append-only campaign journal: the crash-safety backbone.
//
// One text file per campaign run. Line 1 is a header binding the journal
// to (spec content hash, trial count, root seed); every further line is
// one completed trial's checksummed record (campaign/trial.h). Appends
// are flushed and fsync'd before the supervisor counts a trial done, so
// after ANY crash — trial child SIGKILL, supervisor SIGKILL, power loss —
// the journal holds exactly the completed trials, and a resume re-runs
// only the rest. Because trials are pure functions of (spec, index), the
// resumed run finishes byte-identical to an uninterrupted one.
//
// Loading is forgiving about damage but never about meaning: a torn tail
// (the classic kill-mid-write artifact) and checksum-failing lines are
// QUARANTINED — counted, reported, and their trials re-run — while a
// header that disagrees with the spec is a hard error, because mixing
// results from two different campaigns is silent corruption, not
// robustness.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "campaign/spec.h"
#include "campaign/trial.h"

namespace satin::campaign {

class CampaignJournal {
 public:
  ~CampaignJournal();
  CampaignJournal() = default;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Opens `path` for appending, creating it (with a header) when absent.
  // An existing journal is replayed: valid records land in completed(),
  // damaged lines are quarantined, and a header mismatch against `spec`
  // fails. Returns false with *error on any hard problem.
  bool open(const std::string& path, const CampaignSpec& spec,
            std::string* error);

  // Valid completed trials, keyed by index (first record wins; a
  // duplicate index — e.g. two runs racing on one journal — is benign
  // because both computed identical bits, and is dropped).
  const std::map<std::uint64_t, TrialResult>& completed() const {
    return completed_;
  }
  // Damaged lines dropped during open(): torn tail, checksum failures,
  // out-of-range indices. Their trials are simply re-run.
  std::uint64_t quarantined() const { return quarantined_; }

  // Appends one record, flushed + fsync'd before returning; false on any
  // write failure. The caller must not count the trial complete until
  // this returns true.
  bool append(const TrialResult& result);
  // Records appended through THIS handle (not counting replayed ones).
  std::uint64_t appended() const { return appended_; }

  void close();

  const std::string& path() const { return path_; }

  // Header-only peek for `satin_campaign status`: no spec needed.
  struct Status {
    std::uint64_t spec_hash = 0;
    std::uint64_t trials = 0;
    std::uint64_t root_seed = 0;
    std::uint64_t completed = 0;
    std::uint64_t quarantined = 0;
  };
  static bool read_status(const std::string& path, Status& out,
                          std::string* error);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::map<std::uint64_t, TrialResult> completed_;
  std::uint64_t quarantined_ = 0;
  std::uint64_t appended_ = 0;
};

}  // namespace satin::campaign
