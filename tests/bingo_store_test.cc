// Integration tests for BingoStore: streaming vs batched vs
// rebuilt-from-scratch equivalence, duplicate-edge semantics, parallel
// batched updates, memory accounting, and full-graph invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/core/radix.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/sampling/exact.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace bingo::core {
namespace {

using graph::Update;
using graph::VertexId;

graph::WeightedEdgeList TestEdges(int scale, uint64_t num_edges, uint64_t seed,
                                  bool float_bias = false) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(scale, num_edges, rng);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(VertexId{1} << scale, pairs);
  graph::BiasParams params;
  params.floating_point = float_bias;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return graph::ToWeightedEdges(csr, biases);
}

BingoConfig Ga() { return BingoConfig{}; }
BingoConfig Bs() {
  BingoConfig config;
  config.adaptive.adaptive = false;
  return config;
}

// Canonical multiset view of one vertex's adjacency.
std::multiset<std::pair<VertexId, double>> AdjacencyOf(const BingoStore& store,
                                                       VertexId v) {
  std::multiset<std::pair<VertexId, double>> result;
  for (const graph::Edge& e : store.Graph().Neighbors(v)) {
    result.insert({e.dst, e.bias});
  }
  return result;
}

void ExpectStoresEquivalent(const BingoStore& a, const BingoStore& b) {
  ASSERT_EQ(a.Graph().NumVertices(), b.Graph().NumVertices());
  ASSERT_EQ(a.Graph().NumEdges(), b.Graph().NumEdges());
  for (VertexId v = 0; v < a.Graph().NumVertices(); ++v) {
    ASSERT_EQ(AdjacencyOf(a, v), AdjacencyOf(b, v)) << "vertex " << v;
  }
  ASSERT_TRUE(a.CheckInvariants().empty()) << a.CheckInvariants();
  ASSERT_TRUE(b.CheckInvariants().empty()) << b.CheckInvariants();
}

TEST(BingoStoreTest, BuildOnRmatPassesFullAudit) {
  for (const bool adaptive : {true, false}) {
    BingoStore store(
        graph::DynamicGraph::FromEdges(1 << 9, TestEdges(9, 4000, 1)),
        adaptive ? Ga() : Bs());
    EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
  }
}

TEST(BingoStoreTest, ParallelBuildMatchesSerialBuild) {
  util::ThreadPool pool(4);
  const auto edges = TestEdges(9, 4000, 2);
  BingoStore serial(graph::DynamicGraph::FromEdges(1 << 9, edges), Ga());
  BingoStore parallel(graph::DynamicGraph::FromEdges(1 << 9, edges), Ga(), &pool);
  ExpectStoresEquivalent(serial, parallel);
}

TEST(BingoStoreTest, SampleNeighborMatchesBiases) {
  // Star graph with known biases; chi-square on the sampled dst.
  graph::WeightedEdgeList edges;
  std::vector<double> weights;
  for (VertexId i = 1; i <= 30; ++i) {
    const double bias = static_cast<double>(i * 3 + (i % 2));
    edges.push_back({0, i, bias});
    weights.push_back(bias);
  }
  BingoStore store(graph::DynamicGraph::FromEdges(64, edges), Ga());
  util::Rng rng(17);
  std::vector<uint64_t> counts(31, 0);
  for (int s = 0; s < 300000; ++s) {
    ++counts[store.SampleNeighbor(0, rng)];
  }
  std::vector<double> expected(31, 0.0);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (VertexId i = 1; i <= 30; ++i) {
    expected[i] = weights[i - 1] / total;
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected));
}

TEST(BingoStoreTest, SampleOnIsolatedVertexReturnsInvalid) {
  BingoStore store(graph::DynamicGraph(4), Ga());
  util::Rng rng(1);
  EXPECT_EQ(store.SampleNeighbor(2, rng), graph::kInvalidVertex);
}

TEST(BingoStoreTest, StreamingInsertDeleteKeepsInvariants) {
  BingoStore store(
      graph::DynamicGraph::FromEdges(1 << 8, TestEdges(8, 2000, 3)), Ga());
  util::Rng rng(5);
  for (int op = 0; op < 500; ++op) {
    const VertexId src = static_cast<VertexId>(rng.NextBounded(256));
    if (rng.NextBool(0.5)) {
      store.StreamingInsert(src, static_cast<VertexId>(rng.NextBounded(256)),
                            1.0 + rng.NextBounded(100));
    } else if (store.Graph().Degree(src) > 0) {
      const auto adj = store.Graph().Neighbors(src);
      const VertexId dst = adj[rng.NextBounded(adj.size())].dst;
      EXPECT_TRUE(store.StreamingDelete(src, dst));
    }
  }
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
}

TEST(BingoStoreTest, StreamingDeleteMissingEdgeReturnsFalse) {
  BingoStore store(graph::DynamicGraph(8), Ga());
  EXPECT_FALSE(store.StreamingDelete(0, 1));
  store.StreamingInsert(0, 1, 2.0);
  EXPECT_TRUE(store.StreamingDelete(0, 1));
  EXPECT_FALSE(store.StreamingDelete(0, 1));
}

TEST(BingoStoreTest, DuplicateEdgesDeleteEarliestFirst) {
  BingoStore store(graph::DynamicGraph(8), Ga());
  store.StreamingInsert(0, 1, 2.0);   // earliest
  store.StreamingInsert(0, 1, 16.0);  // later duplicate
  ASSERT_EQ(store.Graph().Degree(0), 2u);
  ASSERT_TRUE(store.StreamingDelete(0, 1));
  ASSERT_EQ(store.Graph().Degree(0), 1u);
  // The survivor must be the later insertion (bias 16).
  EXPECT_DOUBLE_EQ(store.Graph().NeighborAt(0, 0).bias, 16.0);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(BingoStoreTest, BatchedInsertThenDeleteOfSameEdgeInOneBatch) {
  // §5.2: one may insert a just-deleted edge back; duplicates carry
  // timestamps and deletion takes the earliest.
  BingoStore store(graph::DynamicGraph(8), Ga());
  store.StreamingInsert(0, 1, 2.0);
  graph::UpdateList batch;
  batch.push_back({Update::Kind::kInsert, 0, 1, 8.0});
  batch.push_back({Update::Kind::kDelete, 0, 1, 0.0});
  batch.push_back({Update::Kind::kInsert, 0, 1, 32.0});
  const auto result = store.ApplyBatch(batch);
  EXPECT_EQ(result.inserted, 2u);
  EXPECT_EQ(result.deleted, 1u);
  // The pre-existing bias-2 copy (earliest) must be the one deleted.
  const auto adj = AdjacencyOf(store, 0);
  EXPECT_EQ(adj.count({1, 2.0}), 0u);
  EXPECT_EQ(adj.count({1, 8.0}), 1u);
  EXPECT_EQ(adj.count({1, 32.0}), 1u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(BingoStoreTest, BatchSkipsDeletesOfMissingEdges) {
  BingoStore store(graph::DynamicGraph(8), Ga());
  graph::UpdateList batch;
  batch.push_back({Update::Kind::kDelete, 0, 7, 0.0});
  batch.push_back({Update::Kind::kInsert, 0, 1, 4.0});
  batch.push_back({Update::Kind::kDelete, 0, 1, 0.0});
  batch.push_back({Update::Kind::kDelete, 0, 1, 0.0});  // second has no target
  const auto result = store.ApplyBatch(batch);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_EQ(result.deleted, 1u);
  EXPECT_EQ(result.skipped_deletes, 2u);
  EXPECT_EQ(store.Graph().NumEdges(), 0u);
}

class WorkloadParamTest
    : public ::testing::TestWithParam<std::tuple<graph::UpdateKind, bool, bool>> {};

TEST_P(WorkloadParamTest, BatchedEqualsStreamingEqualsRebuilt) {
  const auto [kind, adaptive, float_bias] = GetParam();
  const auto edges = TestEdges(8, 3000, 11, float_bias);
  util::Rng rng(13);
  graph::UpdateWorkloadParams wparams;
  wparams.kind = kind;
  wparams.batch_size = 100;
  wparams.num_batches = 4;
  const auto workload = graph::BuildUpdateWorkload(edges, wparams, rng);
  const BingoConfig config = adaptive ? Ga() : Bs();

  BingoStore streaming(
      graph::DynamicGraph::FromEdges(1 << 8, workload.initial_edges), config);
  BingoStore batched(
      graph::DynamicGraph::FromEdges(1 << 8, workload.initial_edges), config);

  streaming.ApplyUpdatesStreaming(workload.updates);
  for (const auto& batch : graph::SplitIntoBatches(workload.updates, 100)) {
    batched.ApplyBatch(batch);
  }
  ExpectStoresEquivalent(streaming, batched);

  // Rebuilt-from-scratch reference: a fresh store over the final edges.
  graph::WeightedEdgeList final_edges;
  for (VertexId v = 0; v < batched.Graph().NumVertices(); ++v) {
    for (const graph::Edge& e : batched.Graph().Neighbors(v)) {
      final_edges.push_back({v, e.dst, e.bias});
    }
  }
  BingoStore rebuilt(graph::DynamicGraph::FromEdges(1 << 8, final_edges), config);
  for (VertexId v = 0; v < batched.Graph().NumVertices(); ++v) {
    const auto pa = batched.SamplerAt(v).ImpliedDistribution(
        batched.Graph().Neighbors(v));
    // Rebuilt adjacency order may differ; compare via (dst, bias) keyed maps.
    std::map<std::pair<VertexId, double>, double> lhs, rhs;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      const auto& e = batched.Graph().NeighborAt(v, static_cast<uint32_t>(i));
      lhs[{e.dst, e.bias}] += pa[i];
    }
    const auto pb = rebuilt.SamplerAt(v).ImpliedDistribution(
        rebuilt.Graph().Neighbors(v));
    for (std::size_t i = 0; i < pb.size(); ++i) {
      const auto& e = rebuilt.Graph().NeighborAt(v, static_cast<uint32_t>(i));
      rhs[{e.dst, e.bias}] += pb[i];
    }
    ASSERT_EQ(lhs.size(), rhs.size()) << "vertex " << v;
    for (const auto& [key, p] : lhs) {
      ASSERT_NEAR(p, rhs.at(key), 1e-9) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadParamTest,
    ::testing::Combine(::testing::Values(graph::UpdateKind::kInsertion,
                                         graph::UpdateKind::kDeletion,
                                         graph::UpdateKind::kMixed),
                       ::testing::Bool(), ::testing::Values(false, true)));

TEST(BingoStoreTest, ParallelBatchMatchesSerialBatch) {
  util::ThreadPool pool(4);
  const auto edges = TestEdges(9, 5000, 21);
  util::Rng rng(22);
  graph::UpdateWorkloadParams wparams;
  wparams.kind = graph::UpdateKind::kMixed;
  wparams.batch_size = 500;
  wparams.num_batches = 2;
  const auto workload = graph::BuildUpdateWorkload(edges, wparams, rng);

  BingoStore serial(
      graph::DynamicGraph::FromEdges(1 << 9, workload.initial_edges), Ga());
  BingoStore parallel(
      graph::DynamicGraph::FromEdges(1 << 9, workload.initial_edges), Ga());
  serial.ApplyBatch(workload.updates, nullptr);
  parallel.ApplyBatch(workload.updates, &pool);
  ExpectStoresEquivalent(serial, parallel);
}

TEST(BingoStoreTest, GaUsesLessMemoryThanBsOnRealGraphs) {
  const auto edges = TestEdges(10, 12000, 31);
  BingoStore ga(graph::DynamicGraph::FromEdges(1 << 10, edges), Ga());
  BingoStore bs(graph::DynamicGraph::FromEdges(1 << 10, edges), Bs());
  EXPECT_LT(ga.MemoryStats().SamplerBytes(), bs.MemoryStats().SamplerBytes());
}

TEST(BingoStoreTest, GroupKindCensusMakesSense) {
  const auto edges = TestEdges(10, 12000, 41);
  BingoStore ga(graph::DynamicGraph::FromEdges(1 << 10, edges), Ga());
  const auto counts = ga.CountGroupKinds();
  EXPECT_EQ(counts[static_cast<int>(GroupKind::kEmpty)], 0u);
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  EXPECT_GT(total, 0u);
  // Degree-derived biases make low bits dense on many vertices.
  EXPECT_GT(counts[static_cast<int>(GroupKind::kDense)], 0u);
  EXPECT_GT(counts[static_cast<int>(GroupKind::kOneElement)], 0u);

  BingoStore bs(graph::DynamicGraph::FromEdges(1 << 10, edges), Bs());
  const auto bs_counts = bs.CountGroupKinds();
  EXPECT_EQ(bs_counts[static_cast<int>(GroupKind::kDense)], 0u);
  EXPECT_EQ(bs_counts[static_cast<int>(GroupKind::kSparse)], 0u);
  EXPECT_EQ(bs_counts[static_cast<int>(GroupKind::kOneElement)], 0u);
}

TEST(BingoStoreTest, MemoryStatsArePopulated) {
  const auto edges = TestEdges(8, 2000, 51);
  BingoStore store(graph::DynamicGraph::FromEdges(1 << 8, edges), Ga());
  const auto stats = store.MemoryStats();
  EXPECT_GT(stats.graph_bytes, 0u);
  EXPECT_GT(stats.SamplerBytes(), 0u);
  EXPECT_EQ(stats.TotalBytes(), stats.graph_bytes + stats.SamplerBytes());
}

// Memory layout: a vertex without out-edges costs only its 16-byte handle.
TEST(BingoStoreTest, EdgelessStoreHoldsOnlyHandles) {
  constexpr VertexId kVertices = 4096;
  BingoStore store(graph::DynamicGraph(kVertices), Ga());
  const auto stats = store.MemoryStats();
  EXPECT_EQ(stats.sampler_dynamic_bytes, 0u);
  EXPECT_EQ(stats.SamplerBytes(), kVertices * sizeof(VertexSampler));
  EXPECT_TRUE(store.CheckInvariants().empty());
}

// The dynamic sampler bytes are exactly the per-vertex breakdown totals, so
// bytes-per-edge figures count every block, header and payload.
TEST(BingoStoreTest, MemoryStatsSumTheVertexBreakdowns) {
  const auto edges = TestEdges(9, 4000, 53, /*float_bias=*/true);
  BingoStore store(graph::DynamicGraph::FromEdges(1 << 9, edges), Ga());
  VertexMemoryBreakdown sum;
  std::size_t with_block = 0;
  for (VertexId v = 0; v < store.NumVertices(); ++v) {
    const VertexMemoryBreakdown b = store.SamplerAt(v).MemoryBreakdown();
    with_block += b.Total() > 0;
    EXPECT_EQ(b.Total() > 0, store.Graph().Degree(v) > 0) << v;
    sum += b;
  }
  const auto stats = store.MemoryStats();
  EXPECT_EQ(stats.sampler_dynamic_bytes, sum.Total());
  EXPECT_EQ(stats.sampler_fixed_bytes,
            store.NumVertices() * sizeof(VertexSampler));
  // Every block carries at least its header and one alias slot.
  EXPECT_GE(sum.header_bytes, with_block * 16);
  EXPECT_GT(sum.alias_bytes, 0u);
  EXPECT_GT(sum.decimal_bytes, 0u);
}

TEST(BingoStoreTest, TenRoundWorkloadEndToEnd) {
  // The paper's evaluation loop: 10 rounds of BATCHSIZE updates, audited
  // after every round.
  const auto edges = TestEdges(9, 6000, 61);
  util::Rng rng(62);
  graph::UpdateWorkloadParams wparams;
  wparams.kind = graph::UpdateKind::kMixed;
  wparams.batch_size = 200;
  wparams.num_batches = 10;
  const auto workload = graph::BuildUpdateWorkload(edges, wparams, rng);
  BingoStore store(
      graph::DynamicGraph::FromEdges(1 << 9, workload.initial_edges), Ga());
  uint64_t round = 0;
  for (const auto& batch : graph::SplitIntoBatches(workload.updates, 200)) {
    store.ApplyBatch(batch);
    ASSERT_TRUE(store.CheckInvariants().empty())
        << "round " << round << ": " << store.CheckInvariants();
    ++round;
  }
  EXPECT_EQ(round, 10u);
}

// Single-edge versions made by an off-pool writer thread (the update writer
// of a service) and freed by another thread (a reader releasing the last
// view of the version they superseded) go back onto the store's pool, and
// the next versions reuse them: after a warm-up over a fixed set of
// vertices, the pool takes no fresh memory, however long the stream runs.
TEST(BingoStoreTest, SingleEdgeVersionsReuseTheStorePool) {
  util::ThreadPool workers(2);
  BingoStore store(
      graph::DynamicGraph::FromEdges(1 << 9, TestEdges(9, 6000, 71, true)),
      Ga(), &workers);
  const util::MemoryPool& pool = store.Pool();
  constexpr int kBatches = 2000;
  constexpr int kWarmup = 400;
  uint64_t fresh_after_warmup = 0;
  std::size_t reserved_after_warmup = 0;
  // The writer hands each pinned view to the reader, which drops it (and
  // so frees the version it pinned) before the writer goes on.
  std::atomic<const BingoStore*> handoff{nullptr};
  std::atomic<int> dropped{0};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    for (;;) {
      if (const BingoStore* view = handoff.exchange(nullptr)) {
        EXPECT_TRUE(view->Intact());
        delete view;
        dropped.fetch_add(1);
      } else if (done.load()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < kBatches; ++i) {
      if (i == kWarmup) {
        fresh_after_warmup = pool.Stats().FreshAllocations();
        reserved_after_warmup = pool.ReservedBytes();
      }
      // Forty vertices in turn, each taking one fractional edge and then
      // giving it back, each time under a pinned view, so each batch copies
      // its vertex.
      Update u;
      u.kind = i % 2 == 0 ? Update::Kind::kInsert : Update::Kind::kDelete;
      u.src = static_cast<VertexId>((i / 2) % 40) * 7;
      u.dst = 3;
      u.bias = 2.75;
      std::unique_ptr<const BingoStore> view = store.View();
      store.ApplyBatch(graph::UpdateList{u});
      handoff.store(view.release());
      while (dropped.load() != i + 1) {
        std::this_thread::yield();
      }
    }
    done.store(true);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(pool.Stats().FreshAllocations(), fresh_after_warmup);
  EXPECT_EQ(pool.ReservedBytes(), reserved_after_warmup);
  EXPECT_EQ(store.MemoryStats().retired_bytes, 0u);
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
}

// With no view pinned nothing can read an older version, so a batch
// changes its vertices in place: it supersedes (and so retires) nothing,
// and ends in the same state as a batch applied under a view.
TEST(BingoStoreTest, BatchWithoutViewsAppliesInPlace) {
  const auto edges = TestEdges(9, 6000, 73, true);
  util::Rng rng(74);
  graph::UpdateWorkloadParams wparams;
  wparams.kind = graph::UpdateKind::kMixed;
  wparams.batch_size = 300;
  wparams.num_batches = 3;
  const auto workload = graph::BuildUpdateWorkload(edges, wparams, rng);
  BingoStore in_place(
      graph::DynamicGraph::FromEdges(1 << 9, workload.initial_edges), Ga());
  BingoStore copied(
      graph::DynamicGraph::FromEdges(1 << 9, workload.initial_edges), Ga());
  for (const auto& batch : graph::SplitIntoBatches(workload.updates, 300)) {
    const uint64_t carves = in_place.Pool().Stats().carves;
    in_place.ApplyBatch(batch);
    EXPECT_EQ(in_place.MemoryStats().retired_bytes, 0u);
    EXPECT_LT(in_place.Pool().Stats().carves - carves, batch.size())
        << "an in-place batch copies no vertex";
    const auto view = copied.View();
    copied.ApplyBatch(batch);
    EXPECT_GT(copied.MemoryStats().retired_bytes, 0u);
  }
  EXPECT_EQ(in_place.Version(), copied.Version());
  ExpectStoresEquivalent(in_place, copied);
  util::Rng a(5);
  util::Rng b(5);
  for (VertexId v = 0; v < in_place.NumVertices(); ++v) {
    for (int draw = 0; draw < 4; ++draw) {
      ASSERT_EQ(in_place.SampleNeighbor(v, a), copied.SampleNeighbor(v, b));
    }
  }
}

}  // namespace
}  // namespace bingo::core
