// Unit tests for src/graph: dynamic graph, CSR, generators, biases,
// update streams, and I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/types.h"
#include "src/graph/update_stream.h"
#include "src/util/checksum.h"

namespace bingo::graph {
namespace {

constexpr uint64_t kBinaryMagicV3 = 0x42494e474f454433ULL;  // "BINGOED3"

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

WeightedEdgeList StarEdges(VertexId center, VertexId leaves) {
  WeightedEdgeList edges;
  for (VertexId i = 1; i <= leaves; ++i) {
    edges.push_back(WeightedEdge{center, i, static_cast<double>(i)});
  }
  return edges;
}

// Collects (dst, bias) pairs of a vertex into a canonical multiset.
std::multiset<std::pair<VertexId, double>> AdjacencySet(const DynamicGraph& g,
                                                        VertexId v) {
  std::multiset<std::pair<VertexId, double>> result;
  for (const Edge& e : g.Neighbors(v)) {
    result.insert({e.dst, e.bias});
  }
  return result;
}

// ---------------------------------------------------------- DynamicGraph --

TEST(DynamicGraphTest, FromEdgesPreservesAdjacency) {
  const auto edges = StarEdges(0, 5);
  auto g = DynamicGraph::FromEdges(6, edges);
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_EQ(g.NumEdges(), 5u);
  EXPECT_EQ(g.Degree(0), 5u);
  EXPECT_EQ(g.Degree(1), 0u);
  const auto adj = AdjacencySet(g, 0);
  EXPECT_EQ(adj.size(), 5u);
  EXPECT_TRUE(adj.count({3, 3.0}) == 1);
}

TEST(DynamicGraphTest, InsertAppendsAndReturnsIndex) {
  DynamicGraph g(4);
  EXPECT_EQ(g.Insert(0, 1, 2.0), 0u);
  EXPECT_EQ(g.Insert(0, 2, 3.0), 1u);
  EXPECT_EQ(g.Insert(1, 0, 1.0), 0u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.NeighborAt(0, 1).dst, 2u);
  EXPECT_DOUBLE_EQ(g.NeighborAt(0, 1).bias, 3.0);
}

TEST(DynamicGraphTest, TimestampsIncreaseWithInsertionOrder) {
  DynamicGraph g(2);
  g.Insert(0, 1, 1.0);
  g.Insert(0, 1, 1.0);
  EXPECT_LT(g.NeighborAt(0, 0).timestamp, g.NeighborAt(0, 1).timestamp);
}

TEST(DynamicGraphTest, SwapRemoveMiddleMovesTail) {
  DynamicGraph g(8);
  for (VertexId i = 1; i <= 4; ++i) {
    g.Insert(0, i, i);
  }
  const auto result = g.SwapRemove(0, 1);  // removes dst=2
  EXPECT_EQ(result.removed.dst, 2u);
  EXPECT_TRUE(result.moved);
  EXPECT_EQ(result.moved_from, 3u);
  EXPECT_EQ(result.moved_to, 1u);
  EXPECT_EQ(result.moved_edge.dst, 4u);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.NeighborAt(0, 1).dst, 4u);
}

TEST(DynamicGraphTest, SwapRemoveLastDoesNotMove) {
  DynamicGraph g(8);
  g.Insert(0, 1, 1.0);
  g.Insert(0, 2, 2.0);
  const auto result = g.SwapRemove(0, 1);
  EXPECT_FALSE(result.moved);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(DynamicGraphTest, FindEarliestPrefersOldestDuplicate) {
  DynamicGraph g(4);
  g.Insert(0, 3, 1.0);
  g.Insert(0, 2, 1.0);
  g.Insert(0, 3, 9.0);  // duplicate of (0,3), later timestamp
  const auto idx = g.FindEarliest(0, 3);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
  // After deleting the earliest, the later duplicate is found.
  g.SwapRemove(0, *idx);
  const auto idx2 = g.FindEarliest(0, 3);
  ASSERT_TRUE(idx2.has_value());
  EXPECT_DOUBLE_EQ(g.NeighborAt(0, *idx2).bias, 9.0);
}

TEST(DynamicGraphTest, FindEarliestMissingReturnsNullopt) {
  DynamicGraph g(4);
  g.Insert(0, 1, 1.0);
  EXPECT_FALSE(g.FindEarliest(0, 2).has_value());
  EXPECT_FALSE(g.FindEarliest(1, 0).has_value());
}

TEST(DynamicGraphTest, HasEdgeTracksMutations) {
  DynamicGraph g(4);
  EXPECT_FALSE(g.HasEdge(0, 1));
  g.Insert(0, 1, 1.0);
  EXPECT_TRUE(g.HasEdge(0, 1));
  g.SwapRemove(0, 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(DynamicGraphTest, FinderKicksInForHighDegreeAndStaysConsistent) {
  DynamicGraph g(1000);
  // Push degree well past the finder threshold.
  for (VertexId i = 1; i <= 200; ++i) {
    g.Insert(0, i, 1.0);
  }
  for (VertexId i = 1; i <= 200; ++i) {
    EXPECT_TRUE(g.HasEdge(0, i)) << i;
  }
  // Random deletions keep the finder in sync.
  for (VertexId i = 1; i <= 100; ++i) {
    const auto idx = g.FindEarliest(0, i);
    ASSERT_TRUE(idx.has_value()) << i;
    g.SwapRemove(0, *idx);
    EXPECT_FALSE(g.HasEdge(0, i));
  }
  for (VertexId i = 101; i <= 200; ++i) {
    EXPECT_TRUE(g.HasEdge(0, i)) << i;
  }
}

TEST(DynamicGraphTest, CollectMatchesSortedByTimestamp) {
  DynamicGraph g(4);
  g.Insert(0, 1, 1.0);
  g.Insert(0, 2, 1.0);
  g.Insert(0, 1, 2.0);
  g.Insert(0, 1, 3.0);
  const auto matches = g.CollectMatches(0, 1);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_LT(g.NeighborAt(0, matches[0]).timestamp,
            g.NeighborAt(0, matches[1]).timestamp);
  EXPECT_LT(g.NeighborAt(0, matches[1]).timestamp,
            g.NeighborAt(0, matches[2]).timestamp);
}

TEST(DynamicGraphTest, BatchSwapRemoveMatchesSequentialSemantics) {
  // Remove a mix of front/middle/tail indices and verify the surviving
  // multiset is exactly the complement.
  DynamicGraph g(64);
  for (VertexId i = 0; i < 20; ++i) {
    g.Insert(0, 100 + i, i + 1.0);
  }
  const std::vector<uint32_t> victims = {0, 3, 4, 17, 18, 19};
  std::multiset<std::pair<VertexId, double>> expected;
  for (uint32_t i = 0; i < 20; ++i) {
    if (std::find(victims.begin(), victims.end(), i) == victims.end()) {
      expected.insert({100 + i, i + 1.0});
    }
  }
  const auto moves = g.BatchSwapRemove(0, victims);
  EXPECT_EQ(g.Degree(0), 14u);
  EXPECT_EQ(AdjacencySet(g, 0), expected);
  // Every move's target must be a victim slot in the front region, and no
  // moved edge may itself be a victim.
  for (const auto& m : moves) {
    EXPECT_LT(m.to, 14u);
    EXPECT_GE(m.from, 14u);
    EXPECT_EQ(g.NeighborAt(0, m.to).dst, m.edge.dst);
  }
}

TEST(DynamicGraphTest, BatchSwapRemoveAllEdges) {
  DynamicGraph g(8);
  std::vector<uint32_t> all;
  for (VertexId i = 0; i < 10; ++i) {
    g.Insert(0, i, 1.0);
    all.push_back(i);
  }
  g.BatchSwapRemove(0, all);
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(DynamicGraphTest, BatchSwapRemoveKeepsFinderConsistent) {
  DynamicGraph g(512);
  for (VertexId i = 0; i < 100; ++i) {
    g.Insert(7, i, 1.0);
  }
  std::vector<uint32_t> victims;
  for (uint32_t i = 0; i < 100; i += 3) {
    victims.push_back(i);
  }
  g.BatchSwapRemove(7, victims);
  for (VertexId i = 0; i < 100; ++i) {
    const bool deleted = i % 3 == 0;
    EXPECT_EQ(g.HasEdge(7, i), !deleted) << i;
  }
}

TEST(DynamicGraphTest, AddVerticesGrowsVertexSet) {
  DynamicGraph g(2);
  g.AddVertices(3);
  EXPECT_EQ(g.NumVertices(), 5u);
  g.Insert(4, 0, 1.0);
  EXPECT_EQ(g.Degree(4), 1u);
}

TEST(DynamicGraphTest, MemoryBytesGrowsWithEdges) {
  DynamicGraph g(100);
  const std::size_t before = g.MemoryBytes();
  for (VertexId i = 0; i < 50; ++i) {
    g.Insert(0, i, 1.0);
  }
  EXPECT_GT(g.MemoryBytes(), before);
}

// -------------------------------------------------------------------- Csr --

TEST(CsrTest, FromPairsBuildsCorrectRanges) {
  const EdgePairList pairs = {{0, 1}, {0, 2}, {2, 0}, {2, 1}, {2, 3}};
  const Csr csr = Csr::FromPairs(4, pairs);
  EXPECT_EQ(csr.NumVertices(), 4u);
  EXPECT_EQ(csr.NumEdges(), 5u);
  EXPECT_EQ(csr.Degree(0), 2u);
  EXPECT_EQ(csr.Degree(1), 0u);
  EXPECT_EQ(csr.Degree(2), 3u);
  EXPECT_EQ(csr.MaxDegree(), 3u);
}

TEST(CsrTest, DedupRemovesDuplicates) {
  const EdgePairList pairs = {{0, 1}, {0, 1}, {0, 2}, {1, 0}, {1, 0}};
  const Csr csr = Csr::FromPairs(3, pairs, /*dedup=*/true);
  EXPECT_EQ(csr.NumEdges(), 3u);
  EXPECT_EQ(csr.Degree(0), 2u);
  EXPECT_EQ(csr.Degree(1), 1u);
}

// ------------------------------------------------------------- generators --

TEST(GeneratorsTest, RmatProducesRequestedEdgeCountInRange) {
  util::Rng rng(1);
  const auto edges = GenerateRmat(10, 5000, rng);
  EXPECT_EQ(edges.size(), 5000u);
  for (const EdgePair& e : edges) {
    EXPECT_LT(e.src, 1024u);
    EXPECT_LT(e.dst, 1024u);
  }
}

TEST(GeneratorsTest, RmatIsSkewed) {
  util::Rng rng(2);
  const auto edges = GenerateRmat(12, 40000, rng);
  const Csr csr = Csr::FromPairs(1 << 12, edges);
  // Power-law-ish: the max degree far exceeds the average degree.
  const double avg = 40000.0 / (1 << 12);
  EXPECT_GT(csr.MaxDegree(), avg * 5);
}

TEST(GeneratorsTest, UniformGeneratorInRange) {
  util::Rng rng(3);
  const auto edges = GenerateUniform(100, 1000, rng);
  EXPECT_EQ(edges.size(), 1000u);
  for (const EdgePair& e : edges) {
    EXPECT_LT(e.src, 100u);
    EXPECT_LT(e.dst, 100u);
  }
}

TEST(GeneratorsTest, RingHasUniformDegree) {
  const auto edges = GenerateRing(10, 3);
  const Csr csr = Csr::FromPairs(10, edges);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(csr.Degree(v), 3u);
  }
}

TEST(GeneratorsTest, MakeUndirectedDoublesEdges) {
  EdgePairList edges = {{0, 1}, {2, 3}};
  MakeUndirected(edges);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[2].src, 1u);
  EXPECT_EQ(edges[2].dst, 0u);
}

TEST(GeneratorsTest, CanonicalizeDropsLoopsAndDuplicates) {
  EdgePairList edges = {{0, 0}, {0, 1}, {0, 1}, {1, 2}};
  Canonicalize(edges);
  EXPECT_EQ(edges.size(), 2u);
}

// ------------------------------------------------------------------ bias --

TEST(BiasTest, DegreeBiasMatchesOutDegrees) {
  const EdgePairList pairs = {{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  const Csr csr = Csr::FromPairs(3, pairs);
  util::Rng rng(1);
  BiasParams params;
  params.distribution = BiasDistribution::kDegree;
  const auto biases = GenerateBiases(csr, params, rng);
  ASSERT_EQ(biases.size(), 6u);
  // Edge 0: (0 -> 1): degree(1) == 1. Edge 1: (0 -> 2): degree(2) == 3.
  EXPECT_DOUBLE_EQ(biases[0], 1.0);
  EXPECT_DOUBLE_EQ(biases[1], 3.0);
}

TEST(BiasTest, SyntheticDistributionsRespectBounds) {
  const Csr csr = Csr::FromPairs(50, GenerateRing(50, 4));
  util::Rng rng(7);
  for (const auto dist : {BiasDistribution::kUniform, BiasDistribution::kGauss,
                          BiasDistribution::kPowerLaw}) {
    BiasParams params;
    params.distribution = dist;
    params.max_bias = 100;
    const auto biases = GenerateBiases(csr, params, rng);
    for (double b : biases) {
      EXPECT_GE(b, 1.0);
      EXPECT_LE(b, 100.0);
      EXPECT_EQ(b, std::floor(b));  // integer-valued
    }
  }
}

TEST(BiasTest, FloatingPointAddsFraction) {
  const Csr csr = Csr::FromPairs(10, GenerateRing(10, 2));
  util::Rng rng(9);
  BiasParams params;
  params.distribution = BiasDistribution::kUniform;
  params.max_bias = 10;
  params.floating_point = true;
  const auto biases = GenerateBiases(csr, params, rng);
  bool any_fraction = false;
  for (double b : biases) {
    EXPECT_GE(b, 1.0);
    any_fraction = any_fraction || b != std::floor(b);
  }
  EXPECT_TRUE(any_fraction);
}

TEST(BiasTest, PowerLawIsSkewedTowardSmallValues) {
  const Csr csr = Csr::FromPairs(2000, GenerateRing(2000, 5));
  util::Rng rng(11);
  BiasParams params;
  params.distribution = BiasDistribution::kPowerLaw;
  params.max_bias = 1000;
  const auto biases = GenerateBiases(csr, params, rng);
  uint64_t small = 0;
  for (double b : biases) {
    small += b <= 10 ? 1 : 0;
  }
  // Far more than 10/1000 of the mass sits at <= 10.
  EXPECT_GT(small, biases.size() / 4);
}

// --------------------------------------------------------- update streams --

TEST(UpdateStreamTest, InsertionWorkloadHasOnlyInserts) {
  util::Rng rng(5);
  const Csr csr = Csr::FromPairs(100, GenerateRing(100, 10));
  const auto edges = ToWeightedEdges(csr, std::vector<double>(1000, 1.0));
  UpdateWorkloadParams params;
  params.kind = UpdateKind::kInsertion;
  params.batch_size = 20;
  params.num_batches = 10;
  const auto workload = BuildUpdateWorkload(edges, params, rng);
  EXPECT_EQ(workload.initial_edges.size(), 800u);
  EXPECT_EQ(workload.updates.size(), 200u);
  for (const Update& u : workload.updates) {
    EXPECT_EQ(u.kind, Update::Kind::kInsert);
  }
}

TEST(UpdateStreamTest, DeletionWorkloadDeletesLiveEdges) {
  util::Rng rng(6);
  const Csr csr = Csr::FromPairs(100, GenerateRing(100, 10));
  const auto edges = ToWeightedEdges(csr, std::vector<double>(1000, 1.0));
  UpdateWorkloadParams params;
  params.kind = UpdateKind::kDeletion;
  params.batch_size = 30;
  params.num_batches = 10;
  const auto workload = BuildUpdateWorkload(edges, params, rng);
  EXPECT_EQ(workload.initial_edges.size(), 1000u);
  EXPECT_EQ(workload.updates.size(), 300u);
  // Every delete must target a distinct live edge: replaying against a
  // multiset must always find its target.
  std::multiset<std::pair<VertexId, VertexId>> live;
  for (const auto& e : workload.initial_edges) {
    live.insert({e.src, e.dst});
  }
  for (const Update& u : workload.updates) {
    EXPECT_EQ(u.kind, Update::Kind::kDelete);
    const auto it = live.find({u.src, u.dst});
    ASSERT_NE(it, live.end());
    live.erase(it);
  }
}

TEST(UpdateStreamTest, MixedWorkloadIsBalancedAndReplayable) {
  util::Rng rng(7);
  const Csr csr = Csr::FromPairs(200, GenerateRing(200, 10));
  const auto edges = ToWeightedEdges(csr, std::vector<double>(2000, 2.0));
  UpdateWorkloadParams params;
  params.kind = UpdateKind::kMixed;
  params.batch_size = 50;
  params.num_batches = 10;
  const auto workload = BuildUpdateWorkload(edges, params, rng);
  uint64_t inserts = 0;
  std::multiset<std::pair<VertexId, VertexId>> live;
  for (const auto& e : workload.initial_edges) {
    live.insert({e.src, e.dst});
  }
  for (const Update& u : workload.updates) {
    if (u.kind == Update::Kind::kInsert) {
      ++inserts;
      live.insert({u.src, u.dst});
    } else {
      const auto it = live.find({u.src, u.dst});
      ASSERT_NE(it, live.end()) << "delete of non-live edge";
      live.erase(it);
    }
  }
  EXPECT_EQ(inserts, 250u);
}

TEST(UpdateStreamTest, SplitIntoBatchesPreservesOrder) {
  UpdateList updates(25);
  for (std::size_t i = 0; i < 25; ++i) {
    updates[i].src = static_cast<VertexId>(i);
  }
  const auto batches = SplitIntoBatches(updates, 10);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 10u);
  EXPECT_EQ(batches[2].size(), 5u);
  EXPECT_EQ(batches[2][4].src, 24u);
}

// -------------------------------------------------------------------- io --

TEST(IoTest, TextRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bingo_io_text.txt";
  const WeightedEdgeList edges = {{0, 1, 2.5}, {3, 4, 1.0}, {2, 2, 7.0}};
  ASSERT_TRUE(SaveWeightedEdgesText(path, edges));
  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesText(path, loaded));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].src, 0u);
  EXPECT_EQ(loaded[0].dst, 1u);
  EXPECT_DOUBLE_EQ(loaded[0].bias, 2.5);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bingo_io_bin.dat";
  WeightedEdgeList edges;
  for (uint32_t i = 0; i < 1000; ++i) {
    edges.push_back(WeightedEdge{i, i * 2 + 1, i * 0.5});
  }
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, edges));
  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesBinary(path, loaded));
  ASSERT_EQ(loaded.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(loaded[i].src, edges[i].src);
    EXPECT_EQ(loaded[i].dst, edges[i].dst);
    EXPECT_DOUBLE_EQ(loaded[i].bias, edges[i].bias);
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  WeightedEdgeList edges;
  EXPECT_FALSE(LoadWeightedEdgesText("/nonexistent/nope.txt", edges));
  EXPECT_FALSE(LoadWeightedEdgesBinary("/nonexistent/nope.bin", edges));
}

TEST(IoTest, TruncatedBinaryFileFailsInsteadOfHugeResize) {
  // Regression: the on-disk count used to be trusted and resize()d before
  // reading, so a truncated file could demand a multi-GB allocation. Now
  // the count is validated against the bytes actually present.
  const std::string path = ::testing::TempDir() + "/bingo_io_trunc.dat";
  WeightedEdgeList edges;
  for (uint32_t i = 0; i < 500; ++i) {
    edges.push_back(WeightedEdge{i, i + 1, 1.0});
  }
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, edges));
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  WeightedEdgeList loaded;
  EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));

  // A fabricated v3 header claiming ~2^60 records, with a correct header
  // CRC, must fail fast on the count-vs-file-size check, not OOM.
  {
    std::string header;
    AppendField(header, kBinaryMagicV3);
    AppendField(header, uint32_t{3});  // version
    AppendField(header, uint32_t{0});  // reserved
    AppendField(header, uint64_t{1} << 60);
    AppendField(header, util::Crc32c(header.data(), header.size()));
    WriteBytes(path, header + std::string(64, '\0'));
  }
  EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));
  std::remove(path.c_str());
}

TEST(IoTest, RetiredBinaryVersionsAreRejected) {
  const std::string path = ::testing::TempDir() + "/bingo_io_retired.dat";
  const WeightedEdgeList edges = {{0, 1, 2.0}, {1, 2, 5.5}};
  // Packed 16-byte v1/v2 records {src, dst, bias}.
  std::string records;
  for (const WeightedEdge& e : edges) {
    AppendField(records, e.src);
    AppendField(records, e.dst);
    AppendField(records, e.bias);
  }
  WeightedEdgeList loaded;

  // v1: magic "BINGOEDG", count, records, no CRCs.
  std::string v1;
  AppendField(v1, uint64_t{0x42494e474f454447ULL});
  AppendField(v1, static_cast<uint64_t>(edges.size()));
  WriteBytes(path, v1 + records);
  EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));

  // v2: magic "BINGOED2", version 2, reserved, count, header CRC, records,
  // payload CRC — every checksum valid.
  std::string v2;
  AppendField(v2, uint64_t{0x42494e474f454432ULL});
  AppendField(v2, uint32_t{2});
  AppendField(v2, uint32_t{0});
  AppendField(v2, static_cast<uint64_t>(edges.size()));
  AppendField(v2, util::Crc32c(v2.data(), v2.size()));
  v2 += records;
  AppendField(v2, util::Crc32c(records.data(), records.size()));
  WriteBytes(path, v2);
  EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));
  std::remove(path.c_str());
}

TEST(IoTest, OutOfRangeIdAndInvalidBiasFailCleanly) {
  // Regression: the binary decoder did not check vertex ids, so a record
  // naming kInvalidVertex loaded, ImpliedVertexCount wrapped to 0, and the
  // CLI's bulk load wrote far past its degree array.
  const std::string path = ::testing::TempDir() + "/bingo_io_bad_ids.dat";
  const WeightedEdgeList bad = {
      {kInvalidVertex, 1, 1.0},
      {0, kInvalidVertex, 1.0},
      {0, 1, std::nan("")},
      {0, 1, -3.0},
  };
  for (const WeightedEdge& record : bad) {
    WeightedEdgeList edges = {{0, 1, 2.0}, {1, 2, 3.0}, record};
    ASSERT_TRUE(SaveWeightedEdgesBinary(path, edges));
    WeightedEdgeList loaded;
    EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));
  }
  // The largest valid id still round-trips.
  const WeightedEdgeList largest_id = {{kInvalidVertex - 1, 0, 1.0}};
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, largest_id));
  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesBinary(path, loaded));
  EXPECT_EQ(ImpliedVertexCount(loaded), kInvalidVertex);

  // The text format refuses the same id.
  {
    std::ofstream out(path);
    out << "4294967295 1 1.0\n";
  }
  EXPECT_FALSE(LoadWeightedEdgesText(path, loaded));
  std::remove(path.c_str());
}

TEST(IoTest, EveryByteFlipAndTruncationFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/bingo_io_sweep.dat";
  const WeightedEdgeList edges = {
      {0, 1, 2.0, 5}, {1, 2, 0.5, 6}, {2, 0, 7.25, 7}, {3, 1, 1.0, 8}};
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, edges));
  const std::string good = ReadBytes(path);
  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesBinary(path, loaded));
  ASSERT_EQ(loaded.size(), edges.size());

  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    std::string flipped = good;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x5a);
    WriteBytes(path, flipped);
    EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded)) << "offset " << offset;
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    WriteBytes(path, good.substr(0, len));
    EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded)) << "length " << len;
  }
  std::remove(path.c_str());
}

TEST(IoTest, CorruptedBinaryPayloadFailsCrc) {
  const std::string path = ::testing::TempDir() + "/bingo_io_crc.dat";
  WeightedEdgeList edges;
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(WeightedEdge{i, i + 1, 3.0});
  }
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, edges));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200, std::ios::beg);  // inside the edge payload
    const char garbage = 0x7F;
    f.write(&garbage, 1);
  }
  WeightedEdgeList loaded;
  EXPECT_FALSE(LoadWeightedEdgesBinary(path, loaded));
  std::remove(path.c_str());
}

TEST(IoTest, AtomicSaveFailureLeavesOldFileIntact) {
  const std::string path = ::testing::TempDir() + "/bingo_io_atomic.dat";
  const WeightedEdgeList good = {{0, 1, 2.0}, {3, 4, 1.0}};
  ASSERT_TRUE(SaveWeightedEdgesBinary(path, good));

  // Block the writer's temp file with a directory: the save must fail
  // without touching the existing good file.
  const std::string tmp = path + ".tmp";
  std::filesystem::create_directory(tmp);
  const WeightedEdgeList other = {{7, 8, 9.0}};
  EXPECT_FALSE(SaveWeightedEdgesBinary(path, other));
  std::filesystem::remove(tmp);

  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesBinary(path, loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].dst, 4u);
  std::remove(path.c_str());
}

TEST(IoTest, TextRejectsMalformedAndInvalidBias) {
  const std::string path = ::testing::TempDir() + "/bingo_io_badtext.txt";
  const auto write_and_load = [&](const char* body) {
    {
      std::ofstream out(path);
      out << body;
    }
    WeightedEdgeList loaded;
    return LoadWeightedEdgesText(path, loaded);
  };
  // Regression: a malformed third column used to be silently dropped,
  // loading the edge with bias 1.0.
  EXPECT_FALSE(write_and_load("1 2 abc\n"));
  EXPECT_FALSE(write_and_load("1 2 3.5garbage\n"));
  EXPECT_FALSE(write_and_load("1 2 3.5 4\n"));
  EXPECT_FALSE(write_and_load("1 2 -3.0\n"));
  EXPECT_FALSE(write_and_load("1 2 nan\n"));
  EXPECT_FALSE(write_and_load("1 2 inf\n"));
  // Still-valid shapes: missing bias defaults to 1.0; zero is legal.
  EXPECT_TRUE(write_and_load("1 2\n# comment\n3 4 0.0\n5 6 2.25\n"));
  WeightedEdgeList loaded;
  ASSERT_TRUE(LoadWeightedEdgesText(path, loaded));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[0].bias, 1.0);
  EXPECT_DOUBLE_EQ(loaded[1].bias, 0.0);
  std::remove(path.c_str());
}

TEST(IoTest, ImpliedVertexCount) {
  EXPECT_EQ(ImpliedVertexCount({}), 0u);
  EXPECT_EQ(ImpliedVertexCount({{0, 5, 1.0}, {3, 2, 1.0}}), 6u);
}

}  // namespace
}  // namespace bingo::graph
