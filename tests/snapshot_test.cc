// Tests for store snapshot/restore.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "src/core/snapshot.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "src/walk/service.h"

namespace bingo::core {
namespace {

using graph::VertexId;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr uint64_t kSnapshotMagic = 0x42494e474f534e50ULL;  // "BINGOSNP"

template <typename T>
void AppendField(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

BingoStore RmatStore(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(8, 2000, rng);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(256, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return BingoStore(graph::DynamicGraph::FromCsr(csr, biases));
}

std::multiset<std::tuple<VertexId, VertexId, double>> AllEdges(
    const BingoStore& store) {
  std::multiset<std::tuple<VertexId, VertexId, double>> edges;
  for (VertexId v = 0; v < store.Graph().NumVertices(); ++v) {
    for (const graph::Edge& e : store.Graph().Neighbors(v)) {
      edges.insert({v, e.dst, e.bias});
    }
  }
  return edges;
}

TEST(SnapshotTest, RoundTripPreservesEdgesAndDistributions) {
  const std::string path = TempPath("snap_roundtrip.bin");
  BingoStore original = RmatStore(1);
  // Churn a little so the store is not in pristine bulk-load shape.
  original.StreamingInsert(3, 9, 17.0);
  original.StreamingDelete(0, original.Graph().Neighbors(0)[0].dst);
  ASSERT_TRUE(SaveSnapshot(original, path));

  const auto loaded = LoadSnapshot(path, BingoConfig{}, 256);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Graph().NumVertices(), 256u);
  EXPECT_EQ(AllEdges(*loaded), AllEdges(original));
  EXPECT_TRUE(loaded->CheckInvariants().empty()) << loaded->CheckInvariants();

  // Per-vertex implied distributions agree (keyed by dst+bias; adjacency
  // order may differ).
  for (VertexId v = 0; v < 256; ++v) {
    std::map<std::pair<VertexId, double>, double> lhs, rhs;
    const auto pa =
        original.SamplerAt(v).ImpliedDistribution(original.Graph().Neighbors(v));
    for (std::size_t i = 0; i < pa.size(); ++i) {
      const auto& e = original.Graph().NeighborAt(v, static_cast<uint32_t>(i));
      lhs[{e.dst, e.bias}] += pa[i];
    }
    const auto pb =
        loaded->SamplerAt(v).ImpliedDistribution(loaded->Graph().Neighbors(v));
    for (std::size_t i = 0; i < pb.size(); ++i) {
      const auto& e = loaded->Graph().NeighborAt(v, static_cast<uint32_t>(i));
      rhs[{e.dst, e.bias}] += pb[i];
    }
    ASSERT_EQ(lhs.size(), rhs.size()) << "vertex " << v;
    for (const auto& [key, p] : lhs) {
      ASSERT_NEAR(p, rhs.at(key), 1e-9) << "vertex " << v;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, DuplicateDeletionOrderSurvivesRoundTrip) {
  const std::string path = TempPath("snap_dups.bin");
  BingoStore original(graph::DynamicGraph(4));
  original.StreamingInsert(0, 1, 2.0);   // earliest
  original.StreamingInsert(0, 1, 16.0);  // later duplicate
  ASSERT_TRUE(SaveSnapshot(original, path));
  auto loaded = LoadSnapshot(path, BingoConfig{}, 4);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->StreamingDelete(0, 1));
  // The earliest copy (bias 2) must be the one deleted after the round trip.
  ASSERT_EQ(loaded->Graph().Degree(0), 1u);
  EXPECT_DOUBLE_EQ(loaded->Graph().NeighborAt(0, 0).bias, 16.0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadMissingFileReturnsNull) {
  EXPECT_EQ(LoadSnapshot("/nonexistent/never.bin"), nullptr);
}

TEST(SnapshotTest, IsolatedTrailingVerticesSurviveViaHeaderCount) {
  const std::string path = TempPath("snap_isolated.bin");
  BingoStore original(graph::DynamicGraph(100));
  original.StreamingInsert(0, 1, 1.0);
  ASSERT_TRUE(SaveSnapshot(original, path));
  // The header records the true vertex count, so no override is needed.
  const auto implicit = LoadSnapshot(path);
  ASSERT_NE(implicit, nullptr);
  EXPECT_EQ(implicit->Graph().NumVertices(), 100u);
  // An explicit larger count still wins (e.g. growing the id space on load).
  const auto larger = LoadSnapshot(path, BingoConfig{}, 200);
  ASSERT_NE(larger, nullptr);
  EXPECT_EQ(larger->Graph().NumVertices(), 200u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedSaveLeavesOldSnapshotReadable) {
  // Regression: snapshots used to be written in place, so a crash (or any
  // failure) mid-save destroyed the previous good snapshot. Saves now land
  // in a temp file and rename atomically.
  const std::string path = TempPath("snap_atomic.bin");
  BingoStore original = RmatStore(7);
  ASSERT_TRUE(SaveSnapshot(original, path));
  const auto before = AllEdges(original);

  // Block the temp path with a directory so the next save fails.
  const std::string tmp = path + ".tmp";
  std::filesystem::create_directory(tmp);
  BingoStore other(graph::DynamicGraph(4));
  other.StreamingInsert(0, 1, 1.0);
  EXPECT_FALSE(SaveSnapshot(other, path));
  std::filesystem::remove(tmp);

  const auto loaded = LoadSnapshot(path, BingoConfig{}, 256);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(AllEdges(*loaded), before);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedOrCorruptSnapshotFailsToLoad) {
  const std::string path = TempPath("snap_corrupt.bin");
  BingoStore original = RmatStore(8);
  ASSERT_TRUE(SaveSnapshot(original, path));

  // Truncation (e.g. torn copy): the edge-count/size validation refuses it.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 3);
  EXPECT_EQ(LoadSnapshot(path, BingoConfig{}, 256), nullptr);

  // Payload corruption: the section CRC refuses it.
  ASSERT_TRUE(SaveSnapshot(original, path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(300, std::ios::beg);
    const char garbage = '\x55';
    f.write(&garbage, 1);
  }
  EXPECT_EQ(LoadSnapshot(path, BingoConfig{}, 256), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ConfigFingerprintMismatchRefusesLoad) {
  const std::string path = TempPath("snap_config.bin");
  BingoStore original = RmatStore(9);  // default config
  ASSERT_TRUE(SaveSnapshot(original, path));
  BingoConfig other;
  other.adaptive.adaptive = false;  // BS baseline: different structures
  EXPECT_EQ(LoadSnapshot(path, other, 256), nullptr);
  EXPECT_NE(LoadSnapshot(path, BingoConfig{}, 256), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotTest, WalSeqAndHeaderRoundTrip) {
  const std::string path = TempPath("snap_header.bin");
  BingoStore original = RmatStore(10);
  ASSERT_TRUE(SaveSnapshot(original, path, /*wal_seq=*/41));
  graph::WeightedEdgeList edges;
  SnapshotInfo info;
  ASSERT_TRUE(LoadSnapshotEdges(path, edges, &info));
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.wal_seq, 41u);
  EXPECT_EQ(info.num_vertices, 256u);
  EXPECT_EQ(info.num_edges, edges.size());
  EXPECT_EQ(info.config_fingerprint, ConfigFingerprint(original.Config()));
  EXPECT_EQ(edges.size(), original.Graph().NumEdges());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadedStoreAcceptsFurtherUpdates) {
  const std::string path = TempPath("snap_updates.bin");
  BingoStore original = RmatStore(2);
  ASSERT_TRUE(SaveSnapshot(original, path));
  auto loaded = LoadSnapshot(path, BingoConfig{}, 256);
  ASSERT_NE(loaded, nullptr);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    loaded->StreamingInsert(static_cast<VertexId>(rng.NextBounded(256)),
                            static_cast<VertexId>(rng.NextBounded(256)),
                            1.0 + rng.NextBounded(64));
  }
  EXPECT_TRUE(loaded->CheckInvariants().empty()) << loaded->CheckInvariants();
  std::remove(path.c_str());
}

TEST(SnapshotTest, OutOfRangeIdsAndInvalidBiasesFailCleanly) {
  // Regression: the snapshot decoder checked neither vertex ids nor
  // biases. A record naming kInvalidVertex wrapped the implied vertex count
  // to 0 and LoadSnapshot wrote past its degree array; an id at or above
  // the header's vertex count silently grew the store; NaN and negative
  // biases built a store without complaint.
  const std::string path = TempPath("snap_bad_records.bin");
  const graph::WeightedEdgeList good = {{0, 1, 2.0}, {1, 2, 3.0}};
  const graph::WeightedEdgeList bad = {
      {graph::kInvalidVertex, 1, 1.0},
      {0, 3, 1.0},  // dst == the header's vertex count
      {0, 1000000, 1.0},
      {0, 1, std::nan("")},
      {0, 1, -3.0},
  };
  for (const graph::WeightedEdge& record : bad) {
    graph::WeightedEdgeList edges = good;
    edges.push_back(record);
    ASSERT_TRUE(SaveEdgeSnapshot(edges, 3, BingoConfig{}, path));
    EXPECT_EQ(LoadSnapshot(path), nullptr) << "src " << record.src;
    graph::WeightedEdgeList loaded;
    EXPECT_FALSE(LoadSnapshotEdges(path, loaded)) << "src " << record.src;
  }
  ASSERT_TRUE(SaveEdgeSnapshot(good, 3, BingoConfig{}, path));
  const auto loaded = LoadSnapshot(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Graph().NumVertices(), 3u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RecoveryFromBaseWithOutOfRangeIdFailsCleanly) {
  const std::string dir = TempPath("snap_bad_recovery");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const graph::WeightedEdgeList edges = {{0, 1, 2.0},
                                         {graph::kInvalidVertex, 1, 1.0}};
  ASSERT_TRUE(SaveEdgeSnapshot(edges, 3, BingoConfig{}, dir + "/base.snapshot"));
  walk::RecoveryReport report;
  report.ok = true;
  EXPECT_EQ(walk::RecoverWalkService(dir, {}, 0, nullptr, nullptr, {}, &report),
            nullptr);
  EXPECT_FALSE(report.ok);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RetiredVersionsAreRejected) {
  const std::string path = TempPath("snap_retired.bin");
  const uint64_t fingerprint = ConfigFingerprint(BingoConfig{});
  graph::WeightedEdgeList loaded;

  // A v2 file: 48 header bytes + CRC, 16-byte records {src, dst, bias},
  // payload CRC — every checksum valid.
  std::string v2;
  AppendField(v2, kSnapshotMagic);
  AppendField(v2, uint32_t{2});
  AppendField(v2, uint32_t{0});  // reserved
  AppendField(v2, fingerprint);
  AppendField(v2, uint64_t{3});  // vertices
  AppendField(v2, uint64_t{1});  // edges
  AppendField(v2, uint64_t{0});  // wal_seq
  AppendField(v2, util::Crc32c(v2.data(), v2.size()));
  std::string record;
  AppendField(record, graph::VertexId{0});
  AppendField(record, graph::VertexId{1});
  AppendField(record, 2.0);
  v2 += record;
  AppendField(v2, util::Crc32c(record.data(), record.size()));
  WriteBytes(path, v2);
  EXPECT_FALSE(LoadSnapshotEdges(path, loaded));
  EXPECT_EQ(LoadSnapshot(path), nullptr);

  // A current-layout file whose CRC-valid header says version 2: refused by
  // the version check, not the checksum.
  ASSERT_TRUE(SaveEdgeSnapshot({{0, 1, 2.0}}, 3, BingoConfig{}, path));
  std::string v3 = ReadBytes(path);
  const uint32_t version = 2;
  v3.replace(8, sizeof(version), reinterpret_cast<const char*>(&version),
             sizeof(version));
  const std::size_t fields = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
  const uint32_t crc = util::Crc32c(v3.data(), fields);
  v3.replace(fields, sizeof(crc), reinterpret_cast<const char*>(&crc),
             sizeof(crc));
  WriteBytes(path, v3);
  EXPECT_FALSE(LoadSnapshotEdges(path, loaded));

  // Version 1 snapshots were plain io binary edge lists; one is no longer
  // read as a snapshot.
  ASSERT_TRUE(graph::SaveWeightedEdgesBinary(path, {{0, 1, 2.0}}));
  EXPECT_FALSE(LoadSnapshotEdges(path, loaded));
  EXPECT_EQ(LoadSnapshot(path), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotTest, EveryByteFlipAndTruncationFailsCleanly) {
  const std::string path = TempPath("snap_sweep.bin");
  const graph::WeightedEdgeList edges = {
      {0, 1, 2.0, 5}, {0, 2, 0.5, 6}, {1, 0, 7.25, 7}, {2, 1, 1.0, 8}};
  ASSERT_TRUE(SaveEdgeSnapshot(edges, 3, BingoConfig{}, path, /*wal_seq=*/9));
  const std::string good = ReadBytes(path);
  graph::WeightedEdgeList loaded;
  ASSERT_TRUE(LoadSnapshotEdges(path, loaded));
  ASSERT_EQ(loaded.size(), edges.size());
  ASSERT_NE(LoadSnapshot(path), nullptr);

  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    std::string flipped = good;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x5a);
    WriteBytes(path, flipped);
    EXPECT_FALSE(LoadSnapshotEdges(path, loaded)) << "offset " << offset;
    EXPECT_EQ(LoadSnapshot(path), nullptr) << "offset " << offset;
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    WriteBytes(path, good.substr(0, len));
    EXPECT_FALSE(LoadSnapshotEdges(path, loaded)) << "length " << len;
    EXPECT_EQ(LoadSnapshot(path), nullptr) << "length " << len;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bingo::core
