#include "obs/flight/recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight/audit.h"
#include "sim/time.h"

namespace satin::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void record_n(FlightRecorder& rec, std::uint64_t n, std::uint64_t seq0 = 0) {
  for (std::uint64_t i = 0; i < n; ++i) {
    rec.record(FlightKind::kDispatch,
               sim::Time::from_ps(static_cast<std::int64_t>(1000 * (i + 1))),
               seq0 + i, /*actor=*/static_cast<int>(i % 4),
               /*payload=*/0xABC0 + i);
  }
}

TEST(FlightRecordTest, EncodeDecodeRoundTrip) {
  FlightRecord in;
  in.t_ps = -1234567890123;
  in.seq = 0xFEDCBA9876543210ull;
  in.payload = 0x0123456789ABCDEFull;
  in.kind = static_cast<std::uint16_t>(FlightKind::kScanEnd);
  in.actor = -1;
  unsigned char buf[kFlightRecordBytes];
  encode_flight_record(in, buf);
  const FlightRecord out = decode_flight_record(buf);
  EXPECT_EQ(in, out);
}

TEST(FlightRecorderTest, InMemoryRetainsCommitOrder) {
  FlightRecorder rec;
  record_n(rec, 5);
  EXPECT_EQ(rec.commits(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].t_ps, static_cast<std::int64_t>(1000 * (i + 1)));
  }
}

TEST(FlightRecorderTest, RingKeepsNewestAndCountsDrops) {
  FlightRecorder::Options opts;
  opts.ring = 4;
  FlightRecorder rec(opts);
  record_n(rec, 10);
  EXPECT_TRUE(rec.ring_mode());
  EXPECT_EQ(rec.commits(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first unwinding of the newest window: seq 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(records[i].seq, 6 + i);
}

TEST(FlightRecorderTest, ChainHashCoversDroppedRecords) {
  // Two recorders see the same stream; only one retains all of it. The
  // chains must match anyway — the fold happens at commit, before drops.
  FlightRecorder full;
  FlightRecorder::Options opts;
  opts.ring = 2;
  FlightRecorder ring(opts);
  record_n(full, 8);
  record_n(ring, 8);
  EXPECT_EQ(full.chain_hash(), ring.chain_hash());
  // And the chain is order-sensitive: a reordered stream must not match.
  FlightRecorder swapped;
  swapped.record(FlightKind::kDispatch, sim::Time::from_ps(2000), 1, 1,
                 0xABC1);
  swapped.record(FlightKind::kDispatch, sim::Time::from_ps(1000), 0, 0,
                 0xABC0);
  record_n(swapped, 6, 2);
  EXPECT_NE(full.chain_hash(), swapped.chain_hash());
}

TEST(FlightRecorderTest, AppendFromPreservesOrderAndDrops) {
  FlightRecorder a, b, merged;
  record_n(a, 3, 0);
  record_n(b, 3, 100);
  merged.append_from(a);
  merged.append_from(b);
  EXPECT_EQ(merged.commits(), 6u);
  const auto records = merged.snapshot();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[2].seq, 2u);
  EXPECT_EQ(records[3].seq, 100u);

  // Drop counts fold through the merge.
  FlightRecorder::Options opts;
  opts.ring = 2;
  FlightRecorder ringed(opts);
  record_n(ringed, 5);
  FlightRecorder sink;
  sink.append_from(ringed);
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.snapshot().size(), 2u);
}

TEST(FlightRecorderTest, SpillFileRoundTripsThroughReader) {
  const std::string path = temp_path("flight_spill.bin");
  {
    FlightRecorder::Options opts;
    opts.path = path;
    opts.spill_chunk = 8;  // force multiple spills
    FlightRecorder rec(opts);
    ASSERT_FALSE(rec.failed());
    record_n(rec, 100);
    EXPECT_TRUE(rec.close());
  }
  FlightLog log;
  std::string error;
  ASSERT_TRUE(read_flight_log(path, log, &error)) << error;
  EXPECT_TRUE(log.has_footer);
  EXPECT_FALSE(log.ring);
  EXPECT_EQ(log.commits, 100u);
  EXPECT_EQ(log.dropped, 0u);
  ASSERT_EQ(log.records.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(log.records[i].seq, i);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RingFileKeepsTailWindow) {
  const std::string path = temp_path("flight_ring.bin");
  {
    FlightRecorder::Options opts;
    opts.path = path;
    opts.ring = 16;
    FlightRecorder rec(opts);
    record_n(rec, 64);
    EXPECT_TRUE(rec.close());
  }
  FlightLog log;
  ASSERT_TRUE(read_flight_log(path, log));
  EXPECT_TRUE(log.ring);
  EXPECT_EQ(log.commits, 64u);
  EXPECT_EQ(log.dropped, 48u);
  ASSERT_EQ(log.records.size(), 16u);
  EXPECT_EQ(log.records.front().seq, 48u);
  EXPECT_EQ(log.records.back().seq, 63u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, CloseIsIdempotent) {
  const std::string path = temp_path("flight_idem.bin");
  FlightRecorder::Options opts;
  opts.path = path;
  FlightRecorder rec(opts);
  record_n(rec, 3);
  EXPECT_TRUE(rec.close());
  EXPECT_TRUE(rec.close());
  FlightLog log;
  ASSERT_TRUE(read_flight_log(path, log));
  EXPECT_EQ(log.records.size(), 3u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OpenFailureIsReportedNotFatal) {
  FlightRecorder::Options opts;
  opts.path = "/nonexistent-dir-zzz/flight.bin";
  FlightRecorder rec(opts);
  EXPECT_TRUE(rec.failed());
  record_n(rec, 2);  // still records in memory, must not crash
  EXPECT_EQ(rec.commits(), 2u);
}

TEST(FlightAuditTest, ReaderRejectsGarbageAndTornFiles) {
  const std::string path = temp_path("flight_bad.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a flight recording at all", f);
    std::fclose(f);
  }
  FlightLog log;
  std::string error;
  EXPECT_FALSE(read_flight_log(path, log, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(read_flight_log(temp_path("flight_missing_zzz.bin"), log));
  std::remove(path.c_str());
}

TEST(FlightAuditTest, ZeroLengthFileGetsADistinctDiagnostic) {
  const std::string path = temp_path("flight_empty.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  FlightLog log;
  std::string error;
  EXPECT_FALSE(read_flight_log(path, log, &error));
  // "empty file", not a generic magic complaint: the operator should see
  // at a glance that the recording never got written, vs got damaged.
  EXPECT_NE(error.find("empty file"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FlightAuditTest, TruncatedHeaderReportsByteCount) {
  const std::string path = temp_path("flight_shorthdr.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("SATNFLT", f);  // 7 bytes of a 32-byte header
    std::fclose(f);
  }
  FlightLog log;
  std::string error;
  EXPECT_FALSE(read_flight_log(path, log, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos) << error;
  EXPECT_NE(error.find("7"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FlightAuditTest, ReplayFoldsRecordsAndDrops) {
  const std::string path = temp_path("flight_replay.bin");
  {
    FlightRecorder::Options opts;
    opts.path = path;
    opts.ring = 4;  // force drops so the footer carries a drop count
    FlightRecorder rec(opts);
    record_n(rec, 10);
    ASSERT_TRUE(rec.close());
  }
  FlightLog log;
  ASSERT_TRUE(read_flight_log(path, log));
  FlightRecorder out;
  ASSERT_TRUE(append_trial_flight_file(out, 3, 0x5EED, path));
  EXPECT_EQ(out.commits(), log.records.size() + 1);  // + the trial marker
  EXPECT_EQ(out.dropped(), log.dropped);
  const auto replayed = out.snapshot();
  ASSERT_EQ(replayed.size(), log.records.size() + 1);
  EXPECT_EQ(replayed[0].kind,
            static_cast<std::uint16_t>(FlightKind::kTrialBegin));
  EXPECT_EQ(replayed[0].actor, 3);
  EXPECT_EQ(replayed[0].payload, 0x5EEDu);
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    EXPECT_EQ(replayed[i + 1], log.records[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(FlightAuditTest, TornFileAppendsNothing) {
  const std::string full_path = temp_path("flight_whole.bin");
  const std::string torn_path = temp_path("flight_torn.bin");
  {
    FlightRecorder::Options opts;
    opts.path = full_path;
    FlightRecorder rec(opts);
    record_n(rec, 10);
    ASSERT_TRUE(rec.close());
  }
  // Keep three whole records and five bytes of the fourth.
  {
    std::FILE* in = std::fopen(full_path.c_str(), "rb");
    std::FILE* out = std::fopen(torn_path.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<unsigned char> buf(kFlightHeaderBytes +
                                   3 * kFlightRecordBytes + 5);
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(in);
    std::fclose(out);
  }
  FlightLog log;
  std::string error;
  EXPECT_FALSE(read_flight_log(torn_path, log, &error));
  EXPECT_NE(error.find("torn record"), std::string::npos) << error;
  // The streaming merge rejects it too, before recording anything.
  FlightRecorder out;
  error.clear();
  EXPECT_FALSE(append_trial_flight_file(out, 0, 1, torn_path, &error));
  EXPECT_NE(error.find("torn record"), std::string::npos) << error;
  EXPECT_EQ(out.commits(), 0u);
  EXPECT_FALSE(append_trial_flight_file(out, 0, 1,
                                        temp_path("flight_missing_zzz.bin")));
  EXPECT_EQ(out.commits(), 0u);
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

TEST(FlightAuditTest, MissingFooterIsToleratedAsTruncated) {
  const std::string full_path = temp_path("flight_full.bin");
  const std::string cut_path = temp_path("flight_cut.bin");
  {
    FlightRecorder::Options opts;
    opts.path = full_path;
    FlightRecorder rec(opts);
    record_n(rec, 10);
    ASSERT_TRUE(rec.close());
  }
  // Chop the footer record off, as a crashed run would.
  {
    std::FILE* in = std::fopen(full_path.c_str(), "rb");
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<unsigned char> buf(kFlightHeaderBytes +
                                   10 * kFlightRecordBytes);
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(in);
    std::fclose(out);
  }
  FlightLog log;
  ASSERT_TRUE(read_flight_log(cut_path, log));
  EXPECT_FALSE(log.has_footer);
  EXPECT_EQ(log.records.size(), 10u);
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(FlightAuditTest, StatsCountPerKindAndSpan) {
  FlightRecorder rec;
  rec.record(FlightKind::kWorldEnter, sim::Time::from_ps(100), 0, 2, 0);
  rec.record(FlightKind::kDispatch, sim::Time::from_ps(200), 1, -1, 0);
  rec.record(FlightKind::kDispatch, sim::Time::from_ps(300), 2, -1, 0);
  rec.record(FlightKind::kAlarm, sim::Time::from_ps(400), 0, 2, 5);
  FlightLog log;
  log.records = rec.snapshot();
  const FlightStats stats = compute_flight_stats(log);
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.by_kind[static_cast<std::size_t>(FlightKind::kDispatch)],
            2u);
  EXPECT_EQ(stats.by_kind[static_cast<std::size_t>(FlightKind::kAlarm)], 1u);
  EXPECT_EQ(stats.first_t_ps, 100);
  EXPECT_EQ(stats.last_t_ps, 400);
}

// Builds a FlightLog as if read back from a closed recorder.
FlightLog log_of(const FlightRecorder& rec, bool ring = false) {
  FlightLog log;
  log.records = rec.snapshot();
  log.commits = rec.commits();
  log.dropped = rec.dropped();
  log.chain_hash = rec.chain_hash();
  log.ring = ring;
  log.has_footer = true;
  return log;
}

TEST(FlightAuditTest, DiffReportsIdenticalStreams) {
  FlightRecorder a, b;
  record_n(a, 20);
  record_n(b, 20);
  const auto result = diff_flight_logs(log_of(a), log_of(b));
  EXPECT_FALSE(result.diverged);
  EXPECT_NE(result.report.find("identical"), std::string::npos);
}

TEST(FlightAuditTest, DiffLocatesFirstDivergingRecord) {
  FlightRecorder a, b;
  record_n(a, 20);
  record_n(b, 7);
  b.record(FlightKind::kDispatch, sim::Time::from_ps(999999), 7, 0,
           0xDEAD);  // diverges at index 7
  record_n(b, 12, 8);
  const auto result = diff_flight_logs(log_of(a), log_of(b), /*context=*/2);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_index, 7u);
  EXPECT_NE(result.report.find("first divergence"), std::string::npos);
  // Context from both streams around the divergent record.
  EXPECT_NE(result.report.find("0xdead"), std::string::npos);
}

TEST(FlightAuditTest, DiffFlagsPrefixTruncation) {
  FlightRecorder a, b;
  record_n(a, 10);
  record_n(b, 6);
  const auto result = diff_flight_logs(log_of(a), log_of(b));
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_index, 6u);
}

TEST(FlightAuditTest, DiffCatchesChainMismatchBehindEqualRingWindows) {
  // Ring recordings can retain identical tail windows while the dropped
  // prefixes differed; the chain hash (folded over every commit) is the
  // only witness, and diff must believe it.
  FlightRecorder::Options opts;
  opts.ring = 4;
  FlightRecorder a(opts), b(opts);
  a.record(FlightKind::kNote, sim::Time::from_ps(1), 0, 0, 0x1);
  b.record(FlightKind::kNote, sim::Time::from_ps(1), 0, 0, 0x2);  // differs
  record_n(a, 8, 10);
  record_n(b, 8, 10);
  EXPECT_EQ(log_of(a, true).records, log_of(b, true).records);
  const auto result = diff_flight_logs(log_of(a, true), log_of(b, true));
  EXPECT_TRUE(result.diverged);
  EXPECT_NE(result.report.find("chain"), std::string::npos);
}

}  // namespace
}  // namespace satin::obs
