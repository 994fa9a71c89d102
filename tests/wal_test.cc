// Unit tests for the write-ahead log: framing, CRCs, prefix replay under
// torn tails and corruption, and append-after-recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "src/walk/service.h"

namespace bingo::core {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

graph::UpdateList MakeBatch(uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  graph::UpdateList updates;
  for (std::size_t i = 0; i < count; ++i) {
    graph::Update u;
    u.kind = rng.NextBool(0.3) ? graph::Update::Kind::kDelete
                               : graph::Update::Kind::kInsert;
    u.src = static_cast<graph::VertexId>(rng.NextBounded(64));
    u.dst = static_cast<graph::VertexId>(rng.NextBounded(64));
    u.bias = 1.0 + rng.NextUnit() * 7.0;
    updates.push_back(u);
  }
  return updates;
}

bool SameUpdates(const graph::UpdateList& a, const graph::UpdateList& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].src != b[i].src || a[i].dst != b[i].dst ||
        a[i].bias != b[i].bias) {
      return false;
    }
  }
  return true;
}

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("wal_roundtrip.log");
  std::vector<graph::UpdateList> batches = {MakeBatch(1, 5), MakeBatch(2, 0),
                                            MakeBatch(3, 17)};
  {
    auto wal = WalWriter::Create(path, 0);
    ASSERT_NE(wal, nullptr);
    for (const auto& b : batches) {
      ASSERT_TRUE(wal->Append(b));
    }
    ASSERT_TRUE(wal->Sync());
    EXPECT_EQ(wal->LastSeq(), 3u);
    EXPECT_EQ(wal->BytesWritten(), FileSize(path));
  }
  std::vector<std::pair<uint64_t, graph::UpdateList>> replayed;
  const WalReplayResult result = ReplayWal(
      path, 0, [&](uint64_t seq, const graph::UpdateList& batch) {
        replayed.emplace_back(seq, batch);
      });
  EXPECT_TRUE(result.opened);
  EXPECT_TRUE(result.header_ok);
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.records, 3u);
  EXPECT_EQ(result.records_replayed, 3u);
  EXPECT_EQ(result.updates_replayed, 22u);
  EXPECT_EQ(result.last_seq, 3u);
  EXPECT_EQ(result.valid_bytes, FileSize(path));
  ASSERT_EQ(replayed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replayed[i].first, i + 1);
    EXPECT_TRUE(SameUpdates(replayed[i].second, batches[i]));
  }
  std::remove(path.c_str());
}

TEST(WalTest, ReplayAfterSeqSkipsCoveredRecords) {
  const std::string path = TempPath("wal_afterseq.log");
  auto wal = WalWriter::Create(path, 10);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append(MakeBatch(1, 3)));  // seq 11
  ASSERT_TRUE(wal->Append(MakeBatch(2, 4)));  // seq 12
  wal.reset();

  const WalReplayResult all = ReplayWal(path, 10, nullptr);
  EXPECT_EQ(all.records_replayed, 2u);
  const WalReplayResult tail = ReplayWal(path, 11, nullptr);
  EXPECT_EQ(tail.records, 2u);
  EXPECT_EQ(tail.records_replayed, 1u);
  EXPECT_EQ(tail.updates_replayed, 4u);
  const WalReplayResult none = ReplayWal(path, 12, nullptr);
  EXPECT_EQ(none.records_replayed, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, TruncatedTailReplaysExactPrefixAndResumes) {
  const std::string path = TempPath("wal_torn.log");
  std::vector<graph::UpdateList> batches = {MakeBatch(4, 8), MakeBatch(5, 8),
                                            MakeBatch(6, 8)};
  {
    auto wal = WalWriter::Create(path, 0);
    ASSERT_NE(wal, nullptr);
    for (const auto& b : batches) {
      ASSERT_TRUE(wal->Append(b));
    }
  }
  // Tear the last record mid-payload: a crash during the third append.
  const uint64_t full = FileSize(path);
  std::filesystem::resize_file(path, full - 5);

  int replayed = 0;
  const WalReplayResult result = ReplayWal(
      path, 0, [&](uint64_t seq, const graph::UpdateList& batch) {
        ASSERT_LE(seq, 2u);
        EXPECT_TRUE(SameUpdates(batch, batches[seq - 1]));
        ++replayed;
      });
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(replayed, 2);
  EXPECT_LT(result.valid_bytes, full - 5);

  // Resume: the torn tail is dropped and appends continue at seq 3.
  auto wal = WalWriter::OpenForAppend(path, result);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->LastSeq(), 2u);
  const graph::UpdateList fresh = MakeBatch(7, 6);
  ASSERT_TRUE(wal->Append(fresh));
  wal.reset();

  const WalReplayResult again = ReplayWal(path, 2, nullptr);
  EXPECT_FALSE(again.truncated_tail);
  EXPECT_EQ(again.records, 3u);
  EXPECT_EQ(again.records_replayed, 1u);
  EXPECT_EQ(again.updates_replayed, 6u);
  std::remove(path.c_str());
}

TEST(WalTest, CorruptPayloadStopsReplayAtPrefix) {
  const std::string path = TempPath("wal_corrupt.log");
  {
    auto wal = WalWriter::Create(path, 0);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->Append(MakeBatch(8, 10)));
    ASSERT_TRUE(wal->Append(MakeBatch(9, 10)));
  }
  // Flip one byte in the middle of the second record's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-4, std::ios::end);
    byte ^= 0x5A;
    f.write(&byte, 1);
  }
  const WalReplayResult result = ReplayWal(path, 0, nullptr);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.last_seq, 1u);
  std::remove(path.c_str());
}

TEST(WalTest, MissingTornAndCorruptHeaders) {
  const WalReplayResult missing = ReplayWal(TempPath("wal_nope.log"), 0, nullptr);
  EXPECT_FALSE(missing.opened);

  // Torn creation: fewer bytes than a file header.
  const std::string torn_path = TempPath("wal_tornhdr.log");
  {
    std::ofstream out(torn_path, std::ios::binary);
    out.write("BINGOWA", 7);
  }
  const WalReplayResult torn = ReplayWal(torn_path, 0, nullptr);
  EXPECT_TRUE(torn.opened);
  EXPECT_FALSE(torn.header_ok);
  EXPECT_TRUE(torn.header_torn);
  EXPECT_EQ(WalWriter::OpenForAppend(torn_path, torn), nullptr);

  // Full-size but invalid header: corruption, not a torn create.
  const std::string bad_path = TempPath("wal_badhdr.log");
  {
    std::ofstream out(bad_path, std::ios::binary);
    const std::string junk(64, '\x42');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  const WalReplayResult bad = ReplayWal(bad_path, 0, nullptr);
  EXPECT_TRUE(bad.opened);
  EXPECT_FALSE(bad.header_ok);
  EXPECT_FALSE(bad.header_torn);
  std::remove(torn_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(WalTest, RetiredVersionOneHeaderIsRefused) {
  // A v1 file (no per-update timestamp) with a CRC-valid header and one
  // CRC-valid record: replay refuses the header instead of decoding it.
  const std::string dir = TempPath("wal_v1_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal.log";
  std::string file;
  const auto append = [&file](const auto& value) {
    file.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(uint64_t{0x42494e474f57414cULL});  // "BINGOWAL"
  append(uint32_t{1});                      // version
  append(uint32_t{0});                      // reserved
  append(uint64_t{0});                      // start_seq
  append(util::Crc32c(file.data(), file.size()));
  std::string payload;
  payload.append("\x01\0\0\0", 4);  // one update
  payload.append("\0", 1);           // kind = insert
  const graph::VertexId src = 0;
  const graph::VertexId dst = 1;
  const double bias = 2.0;
  payload.append(reinterpret_cast<const char*>(&src), sizeof(src));
  payload.append(reinterpret_cast<const char*>(&dst), sizeof(dst));
  payload.append(reinterpret_cast<const char*>(&bias), sizeof(bias));
  const std::size_t record_start = file.size();
  append(uint32_t{0x4c415257u});  // "WRAL"
  append(static_cast<uint32_t>(payload.size()));
  append(uint64_t{1});  // seq
  append(util::Crc32c(payload.data(), payload.size()));
  append(util::Crc32c(file.data() + record_start, file.size() - record_start));
  file += payload;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  uint64_t delivered = 0;
  const WalReplayResult replay = ReplayWal(
      path, 0, [&](uint64_t, const graph::UpdateList&) { ++delivered; });
  EXPECT_TRUE(replay.opened);
  EXPECT_FALSE(replay.header_ok);
  EXPECT_FALSE(replay.header_torn);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(WalWriter::OpenForAppend(path, replay), nullptr);

  // Recovery over a valid base refuses the directory rather than replaying
  // or superseding the journal.
  ASSERT_TRUE(SaveEdgeSnapshot({{0, 2, 1.0}}, 3, BingoConfig{},
                               dir + "/base.snapshot"));
  walk::RecoveryReport report;
  EXPECT_EQ(walk::RecoverWalkService(dir, {}, 0, nullptr, nullptr, {}, &report),
            nullptr);
  EXPECT_FALSE(report.ok);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, FsyncOnCommitAppends) {
  const std::string path = TempPath("wal_fsync.log");
  WalOptions options;
  options.fsync_on_commit = true;
  auto wal = WalWriter::Create(path, 0, options);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append(MakeBatch(10, 3)));
  ASSERT_TRUE(wal->Append(MakeBatch(11, 3)));
  wal.reset();
  const WalReplayResult result = ReplayWal(path, 0, nullptr);
  EXPECT_EQ(result.records, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bingo::core
