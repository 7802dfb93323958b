#include "obs/flight/audit.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace satin::obs {

namespace {

// Opens a recording and validates its header. Returns the file positioned
// at the first record and sets *ring, or nullptr with *error set.
std::FILE* open_flight_log(const std::string& path, bool* ring,
                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  // Distinguish the boring corruptions a fleet actually produces — empty
  // file from a crashed open, truncated header from a torn copy, foreign
  // bytes — so the operator reads the cause, not "bad file". Only the
  // bytes actually read are ever inspected.
  unsigned char header[kFlightHeaderBytes];
  const std::size_t header_n = std::fread(header, 1, sizeof(header), f);
  if (header_n == 0) {
    if (error != nullptr) *error = path + ": empty file (zero-length recording)";
    std::fclose(f);
    return nullptr;
  }
  if (header_n < sizeof(header)) {
    if (error != nullptr) {
      *error = path + ": truncated header (" + std::to_string(header_n) +
               " of " + std::to_string(sizeof(header)) + " bytes)";
    }
    std::fclose(f);
    return nullptr;
  }
  if (std::memcmp(header, kFlightMagic, sizeof(kFlightMagic)) != 0) {
    if (error != nullptr) *error = path + ": not a flight recording";
    std::fclose(f);
    return nullptr;
  }
  const std::uint32_t version = static_cast<std::uint32_t>(header[8]) |
                                (static_cast<std::uint32_t>(header[9]) << 8) |
                                (static_cast<std::uint32_t>(header[10]) << 16) |
                                (static_cast<std::uint32_t>(header[11]) << 24);
  const std::uint32_t rec_bytes =
      static_cast<std::uint32_t>(header[12]) |
      (static_cast<std::uint32_t>(header[13]) << 8) |
      (static_cast<std::uint32_t>(header[14]) << 16) |
      (static_cast<std::uint32_t>(header[15]) << 24);
  if (version != kFlightVersion || rec_bytes != kFlightRecordBytes) {
    if (error != nullptr) {
      *error = path + ": unsupported version/record size";
    }
    std::fclose(f);
    return nullptr;
  }
  *ring = (header[16] & 1) != 0;
  return f;
}

// Walks the records after the header: calls on_record for each one up to
// the footer (or EOF without one: tolerated, a crashed run), then
// on_footer for the footer if present. Returns false with *error on a
// torn record at the end of the file.
template <typename OnRecord, typename OnFooter>
bool walk_flight_records(std::FILE* f, const std::string& path,
                         std::string* error, OnRecord&& on_record,
                         OnFooter&& on_footer) {
  unsigned char buf[kFlightRecordBytes];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    if (n == 0) return true;
    if (n != sizeof(buf)) {
      if (error != nullptr) *error = path + ": torn record at end of file";
      return false;
    }
    const FlightRecord rec = decode_flight_record(buf);
    if (rec.kind == static_cast<std::uint16_t>(FlightKind::kEof)) {
      on_footer(rec);
      return true;
    }
    on_record(rec);
  }
}

}  // namespace

bool read_flight_log(const std::string& path, FlightLog& out,
                     std::string* error) {
  out = FlightLog{};
  std::FILE* f = open_flight_log(path, &out.ring, error);
  if (f == nullptr) return false;
  const bool ok = walk_flight_records(
      f, path, error,
      [&](const FlightRecord& rec) { out.records.push_back(rec); },
      [&](const FlightRecord& footer) {
        out.has_footer = true;
        out.commits = static_cast<std::uint64_t>(footer.t_ps);
        out.dropped = footer.seq;
        out.chain_hash = footer.payload;
      });
  std::fclose(f);
  return ok;
}

bool append_trial_flight_file(FlightRecorder& out, std::uint64_t index,
                              std::uint64_t seed, const std::string& path,
                              std::string* error) {
  bool ring = false;
  std::FILE* f = open_flight_log(path, &ring, error);
  if (f == nullptr) return false;
  // A first pass finds a torn tail before anything is recorded, so a
  // damaged file appends nothing, exactly as read_flight_log rejects it.
  bool ok = walk_flight_records(
      f, path, error, [](const FlightRecord&) {}, [](const FlightRecord&) {});
  if (ok) {
    out.record(FlightKind::kTrialBegin, sim::Time::zero(), index,
               static_cast<int>(index), seed);
    std::fseek(f, static_cast<long>(kFlightHeaderBytes), SEEK_SET);
    ok = walk_flight_records(
        f, path, error,
        [&](const FlightRecord& rec) {
          out.record(static_cast<FlightKind>(rec.kind),
                     sim::Time::from_ps(rec.t_ps), rec.seq, rec.actor,
                     rec.payload);
        },
        [&](const FlightRecord& footer) { out.note_dropped(footer.seq); });
  }
  std::fclose(f);
  return ok;
}

FlightStats compute_flight_stats(const FlightLog& log) {
  FlightStats stats;
  stats.total = log.records.size();
  bool first = true;
  for (const FlightRecord& rec : log.records) {
    if (rec.kind < stats.by_kind.size()) {
      ++stats.by_kind[rec.kind];
    } else {
      ++stats.other_kinds;
    }
    if (first) {
      stats.first_t_ps = rec.t_ps;
      first = false;
    }
    stats.last_t_ps = rec.t_ps;
  }
  return stats;
}

std::string format_flight_record(const FlightRecord& record) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%lldps %-11s seq=%llu actor=%d payload=0x%llx",
                static_cast<long long>(record.t_ps),
                to_string(static_cast<FlightKind>(record.kind)),
                static_cast<unsigned long long>(record.seq), record.actor,
                static_cast<unsigned long long>(record.payload));
  return buf;
}

namespace {

void append_context(std::string& out, const char* label,
                    const std::vector<FlightRecord>& records,
                    std::size_t divergence, std::size_t context) {
  out += label;
  out += ":\n";
  const std::size_t lo = divergence > context ? divergence - context : 0;
  const std::size_t hi = std::min(records.size(), divergence + context + 1);
  for (std::size_t i = lo; i < hi; ++i) {
    char head[32];
    std::snprintf(head, sizeof(head), "  %c[%zu] ",
                  i == divergence ? '>' : ' ', i);
    out += head;
    out += format_flight_record(records[i]);
    out += '\n';
  }
  if (divergence >= records.size()) {
    char head[64];
    std::snprintf(head, sizeof(head), "  >[%zu] <end of stream>\n",
                  divergence);
    out += head;
  }
}

}  // namespace

FlightDivergence diff_flight_logs(const FlightLog& a, const FlightLog& b,
                                  std::size_t context) {
  FlightDivergence result;
  const std::size_t common = std::min(a.records.size(), b.records.size());
  std::size_t i = 0;
  while (i < common && a.records[i] == b.records[i]) ++i;
  if (i == common && a.records.size() == b.records.size()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "identical: %zu records, chain 0x%llx vs 0x%llx%s",
                  a.records.size(),
                  static_cast<unsigned long long>(a.chain_hash),
                  static_cast<unsigned long long>(b.chain_hash),
                  a.has_footer && b.has_footer &&
                          a.chain_hash != b.chain_hash
                      ? " (CHAIN MISMATCH: records dropped before divergence)"
                      : "");
    result.report = buf;
    // A ring recording can drop the prefix where two runs diverged; the
    // retained windows then compare equal while the full streams did not.
    // The chain hash covers every committed record, so surface that.
    result.diverged = a.has_footer && b.has_footer &&
                      a.chain_hash != b.chain_hash;
    result.first_index = a.records.size();
    return result;
  }
  result.diverged = true;
  result.first_index = i;
  char head[256];
  std::snprintf(head, sizeof(head),
                "first divergence at record %zu"
                " (A: %zu records, B: %zu records)\n",
                i, a.records.size(), b.records.size());
  result.report = head;
  append_context(result.report, "--- A", a.records, i, context);
  append_context(result.report, "--- B", b.records, i, context);
  return result;
}

}  // namespace satin::obs
