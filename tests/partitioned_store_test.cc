// Dedicated PartitionedBingoStore coverage: batched-update equivalence
// against a single whole-graph BingoStore, walker-transfer accounting, and
// invariant checks across mixed insert/delete streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/thread_pool.h"
#include "src/walk/partitioned.h"

namespace bingo::walk {
namespace {

using core::BingoStore;
using graph::VertexId;

constexpr VertexId kNumVertices = 256;

graph::WeightedEdgeList TestGraph(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(8, 2500, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(kNumVertices, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return graph::ToWeightedEdges(csr, biases);
}

graph::UpdateList MixedUpdates(const graph::WeightedEdgeList& edges,
                               uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  graph::UpdateList updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0: {  // delete a (probably) live edge
        const auto& e = edges[rng.NextBounded(edges.size())];
        updates.push_back({graph::Update::Kind::kDelete, e.src, e.dst, 0.0});
        break;
      }
      case 1: {  // delete request that may have no match
        const auto src = static_cast<VertexId>(rng.NextBounded(kNumVertices));
        const auto dst = static_cast<VertexId>(rng.NextBounded(kNumVertices));
        updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
        break;
      }
      default: {
        const auto src = static_cast<VertexId>(rng.NextBounded(kNumVertices));
        const auto dst = static_cast<VertexId>(rng.NextBounded(kNumVertices));
        updates.push_back({graph::Update::Kind::kInsert, src, dst,
                           1.0 + rng.NextUnit() * 5.0});
        break;
      }
    }
  }
  return updates;
}

// Sorted (dst, bias) view of a vertex's adjacency for order-insensitive
// comparison.
std::vector<std::pair<VertexId, double>> AdjacencyMultiset(
    std::span<const graph::Edge> adj) {
  std::vector<std::pair<VertexId, double>> entries;
  entries.reserve(adj.size());
  for (const auto& e : adj) {
    entries.emplace_back(e.dst, e.bias);
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// --------------------------------------------- ApplyBatch equivalence --

TEST(PartitionedStoreTest, ApplyBatchMatchesSingleStore) {
  const auto edges = TestGraph(41);
  const auto updates = MixedUpdates(edges, 5, 800);

  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  const auto reference_result = reference.ApplyBatch(updates);

  util::ThreadPool pool(4);
  for (const int shards : {1, 2, 5}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PartitionedBingoStore store(edges, kNumVertices, shards);
    const auto result = store.ApplyBatch(updates, &pool);
    EXPECT_EQ(result, reference_result);
    EXPECT_EQ(store.NumEdges(), reference.Graph().NumEdges());
    for (VertexId v = 0; v < kNumVertices; ++v) {
      ASSERT_EQ(AdjacencyMultiset(store.NeighborsOf(v)),
                AdjacencyMultiset(reference.Graph().Neighbors(v)))
          << "vertex " << v;
    }
  }
}

// ------------------------------------------- walker-transfer accounting --

// Replays the exact per-walker persistent RNG streams the partitioned
// driver uses (one ForStream(seed, id) stream per walker, carried across
// supersteps) and counts expected steps, finishers, and cross-shard hops;
// the driver's accounting must match exactly.
TEST(PartitionedStoreTest, WalkerMigrationAccountingIsExact) {
  const auto edges = TestGraph(42);
  const int shards = 4;
  PartitionedBingoStore store(edges, kNumVertices, shards);
  WalkConfig cfg;
  cfg.walk_length = 15;
  const auto result = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);

  uint64_t expected_steps = 0;
  uint64_t expected_finished = 0;
  uint64_t expected_migrations = 0;
  for (uint64_t w = 0; w < kNumVertices; ++w) {
    util::Rng rng = util::Rng::ForStream(cfg.seed, w);
    VertexId cur = static_cast<VertexId>(w % kNumVertices);
    uint32_t step = 0;
    for (; step < cfg.walk_length; ++step) {
      const VertexId next = store.SampleNeighbor(cur, rng);
      if (next == graph::kInvalidVertex) {
        break;
      }
      ++expected_steps;
      // A migration is a walker delivered to a different shard with steps
      // remaining (the deepwalk stepper never self-terminates).
      if (step + 1 < cfg.walk_length &&
          store.ShardOf(next) != store.ShardOf(cur)) {
        ++expected_migrations;
      }
      cur = next;
    }
    expected_finished += step > 0 ? 1 : 0;
  }
  EXPECT_EQ(result.total_steps, expected_steps);
  EXPECT_EQ(result.finished_walkers, expected_finished);
  EXPECT_EQ(result.walker_migrations, expected_migrations);
}

TEST(PartitionedStoreTest, SingleShardNeverMigrates) {
  const auto edges = TestGraph(43);
  PartitionedBingoStore store(edges, kNumVertices, 1);
  WalkConfig cfg;
  cfg.walk_length = 12;
  const auto result = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);
  EXPECT_GT(result.total_steps, 0u);
  EXPECT_EQ(result.walker_migrations, 0u);
}

// ------------------------------------------------ invariants under churn --

TEST(PartitionedStoreTest, InvariantsHoldAcrossMixedUpdateRounds) {
  const auto edges = TestGraph(44);
  PartitionedBingoStore store(edges, kNumVertices, 3);
  uint64_t live_edges = edges.size();
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto updates = MixedUpdates(edges, 100 + round, 400);
    const auto result = store.ApplyBatch(updates);
    live_edges += result.inserted;
    live_edges -= result.deleted;
    EXPECT_EQ(store.NumEdges(), live_edges);
    ASSERT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
  }
  // Streaming single-edge path keeps invariants too.
  store.StreamingInsert(1, 2, 3.5);
  EXPECT_TRUE(store.StreamingDelete(1, 2));
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
}

TEST(PartitionedStoreTest, MemoryStatsAggregateShards) {
  const auto edges = TestGraph(45);
  PartitionedBingoStore store(edges, kNumVertices, 4);
  const auto stats = store.MemoryStats();
  EXPECT_GT(stats.graph_bytes, 0u);
  EXPECT_GT(stats.SamplerBytes(), 0u);
  EXPECT_EQ(stats.TotalBytes(), store.MemoryBytes());
}

}  // namespace
}  // namespace bingo::walk
