// Tests for the walk engine, the four applications, the baseline stores,
// and the partitioned store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/baseline_stores.h"
#include "src/walk/engine.h"
#include "src/walk/partitioned.h"

namespace bingo::walk {
namespace {

using core::BingoStore;
using graph::VertexId;

graph::WeightedEdgeList SmallWeightedGraph(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(8, 2500, rng);
  graph::MakeUndirected(pairs);  // no dead ends in practice
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(256, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return graph::ToWeightedEdges(csr, biases);
}

graph::DynamicGraph MakeGraph(const graph::WeightedEdgeList& edges,
                              VertexId n = 256) {
  return graph::DynamicGraph::FromEdges(n, edges);
}

// ----------------------------------------------------------------- engine --

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  const auto edges = SmallWeightedGraph(1);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  util::ThreadPool pool(4);
  const auto serial = RunDeepWalk(store, cfg, nullptr);
  const auto parallel = RunDeepWalk(store, cfg, &pool);
  EXPECT_EQ(serial.total_steps, parallel.total_steps);
  ASSERT_EQ(serial.path_offsets, parallel.path_offsets);
  EXPECT_EQ(serial.paths, parallel.paths);
}

TEST(EngineTest, SteadyStateChunkBuffersAllocateNothing) {
  // The PR acceptance criterion: after a warm-up pass, repeated engine
  // walk calls lease every chunk buffer from the executor's scratch
  // MemoryPool free lists — zero fresh allocations. The engine's chunk
  // buffers have a DETERMINISTIC peak demand (reserved exactly once per
  // chunk, every chunk's buffer coexists until the stitch), so the
  // assertion is exact. Buffers with scheduling-dependent transient demand
  // (growth doublings in the superstep driver's outboxes, ephemeral visit
  // accumulators) are covered by the convergence test below.
  const auto edges = SmallWeightedGraph(4);
  BingoStore store(MakeGraph(edges));
  util::ThreadPool pool(4);
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  cfg.num_walkers = 2048;  // several chunks per call, not the serial path
  // Warm up: the first calls carve arena space for every size class used.
  for (int i = 0; i < 3; ++i) {
    RunDeepWalk(store, cfg, &pool);
  }
  const auto warm = pool.ScratchMemory().Stats();
  const std::size_t reserved = pool.ScratchMemory().ReservedBytes();
  for (int i = 0; i < 5; ++i) {
    RunDeepWalk(store, cfg, &pool);
  }
  const auto steady = pool.ScratchMemory().Stats();
  EXPECT_EQ(steady.FreshAllocations(), warm.FreshAllocations())
      << "steady-state walk calls must not take fresh memory for chunk "
         "buffers";
  EXPECT_GT(steady.free_list_hits, warm.free_list_hits);
  EXPECT_EQ(pool.ScratchMemory().ReservedBytes(), reserved);
  EXPECT_EQ(pool.ScratchMemory().LiveBytes(), 0u)
      << "every leased chunk buffer must be returned";
}

TEST(EngineTest, TransientScratchDemandConvergesToReuse) {
  // Two buffer families have scheduling-dependent peak demand: per-chunk
  // visit accumulators are EPHEMERAL (alive only while their chunk
  // executes, so the peak follows how many chunks overlap), and the
  // superstep driver's queues/outboxes transiently hold old+new blocks
  // while growing (concurrent shard growth stacks). Both are bounded by
  // workers + caller, so the pool must CONVERGE: once two consecutive
  // passes take no fresh memory, demand is provisioned and reuse is total.
  const auto edges = SmallWeightedGraph(4);
  BingoStore store(MakeGraph(edges));
  const PartitionedBingoStore sharded(edges, 256, 4);
  util::ThreadPool pool(4);
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.num_walkers = 2048;
  uint64_t fresh_before = pool.ScratchMemory().Stats().FreshAllocations();
  int consecutive_clean = 0;
  for (int attempt = 0; attempt < 32 && consecutive_clean < 2; ++attempt) {
    RunDeepWalk(store, cfg, &pool);
    RunPartitionedApp(sharded, cfg, DeepWalkApp{}, &pool);
    const uint64_t fresh_after =
        pool.ScratchMemory().Stats().FreshAllocations();
    consecutive_clean = fresh_after == fresh_before ? consecutive_clean + 1 : 0;
    fresh_before = fresh_after;
  }
  EXPECT_EQ(consecutive_clean, 2) << "scratch demand never stopped growing";
  EXPECT_EQ(pool.ScratchMemory().LiveBytes(), 0u);
}

TEST(EngineTest, PathsRespectLengthBound) {
  const auto edges = SmallWeightedGraph(2);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  const auto result = RunDeepWalk(store, cfg, nullptr);
  ASSERT_EQ(result.path_offsets.size(), 257u);
  for (std::size_t w = 0; w < 256; ++w) {
    const uint64_t len = result.path_offsets[w + 1] - result.path_offsets[w];
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 11u);  // start + 10 steps
  }
}

TEST(EngineTest, PathsFollowExistingEdges) {
  const auto edges = SmallWeightedGraph(3);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 15;
  cfg.record_paths = true;
  const auto result = RunDeepWalk(store, cfg, nullptr);
  for (std::size_t w = 0; w < 256; ++w) {
    for (uint64_t i = result.path_offsets[w] + 1; i < result.path_offsets[w + 1];
         ++i) {
      EXPECT_TRUE(store.Graph().HasEdge(result.paths[i - 1], result.paths[i]))
          << "walker " << w;
    }
  }
}

TEST(EngineTest, VisitCountsMatchStepsPlusStarts) {
  const auto edges = SmallWeightedGraph(4);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.count_visits = true;
  const auto result =
      RunWalks(store, cfg, internal::FirstOrderStepper<BingoStore>{store},
               nullptr);
  const uint64_t total_visits =
      std::accumulate(result.visit_counts.begin(), result.visit_counts.end(),
                      uint64_t{0});
  EXPECT_EQ(total_visits, result.total_steps + 256);
}

TEST(EngineTest, ZeroVertexGraphProducesEmptyResult) {
  BingoStore store(graph::DynamicGraph(0));
  WalkConfig cfg;
  cfg.num_walkers = 5;  // walkers requested but nowhere to start
  cfg.walk_length = 10;
  cfg.record_paths = true;
  cfg.count_visits = true;
  const auto result = RunDeepWalk(store, cfg, nullptr);
  EXPECT_EQ(result.total_steps, 0u);
  EXPECT_EQ(result.finished_walkers, 0u);
  EXPECT_TRUE(result.paths.empty());
  ASSERT_EQ(result.path_offsets.size(), 6u);
  EXPECT_EQ(result.path_offsets.back(), 0u);
}

TEST(EngineTest, NumWalkersOverridesDefault) {
  const auto edges = SmallWeightedGraph(5);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.num_walkers = 10;
  cfg.walk_length = 5;
  cfg.record_paths = true;
  const auto result = RunDeepWalk(store, cfg, nullptr);
  EXPECT_EQ(result.path_offsets.size(), 11u);
}

// ------------------------------------------------------------- transitions --

// Aggregated transition frequencies out of one vertex across a big walk
// corpus must match the vertex's bias distribution.
TEST(TransitionTest, DeepWalkTransitionsMatchBiases) {
  const auto edges = SmallWeightedGraph(6);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 40;
  cfg.num_walkers = 4096;  // many walkers -> dense transition statistics
  cfg.record_paths = true;
  const auto result = RunDeepWalk(store, cfg, nullptr);

  // Pick the highest-degree vertex for statistics.
  VertexId hub = 0;
  for (VertexId v = 0; v < 256; ++v) {
    if (store.Graph().Degree(v) > store.Graph().Degree(hub)) {
      hub = v;
    }
  }
  std::map<VertexId, uint64_t> transitions;
  uint64_t total = 0;
  for (std::size_t w = 0; w < cfg.num_walkers; ++w) {
    for (uint64_t i = result.path_offsets[w];
         i + 1 < result.path_offsets[w + 1]; ++i) {
      if (result.paths[i] == hub) {
        ++transitions[result.paths[i + 1]];
        ++total;
      }
    }
  }
  ASSERT_GT(total, 5000u);
  // Expected: bias-proportional across hub's neighbors (neighbors are
  // unique after Canonicalize).
  const auto adj = store.Graph().Neighbors(hub);
  double bias_total = 0;
  for (const auto& e : adj) {
    bias_total += e.bias;
  }
  std::vector<uint64_t> counts;
  std::vector<double> expected;
  for (const auto& e : adj) {
    counts.push_back(transitions[e.dst]);
    expected.push_back(e.bias / bias_total);
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
}

// ---------------------------------------------------------------- node2vec --

TEST(Node2vecTest, StepperDistributionMatchesSecondOrderProbabilities) {
  // Tiny fixed graph: cur = 0 with neighbors {1, 2, 3}; prev = 1;
  // edge (1, 2) exists so distance(1, 2) = 1; distance(1, 1) = 0;
  // distance(1, 3) = 2.
  graph::WeightedEdgeList edges = {
      {0, 1, 2.0}, {0, 2, 3.0}, {0, 3, 5.0}, {1, 2, 1.0}, {1, 0, 1.0}};
  BingoStore store(MakeGraph(edges, 4));
  Node2vecParams params;
  params.p = 0.5;
  params.q = 2.0;
  const double f_max = std::max({1.0 / params.p, 1.0, 1.0 / params.q});
  internal::Node2vecStepper<BingoStore> stepper{store, params, f_max};
  util::Rng rng(77);
  std::vector<uint64_t> counts(4, 0);
  constexpr int kSamples = 200000;
  for (int s = 0; s < kSamples; ++s) {
    const VertexId next = stepper.Next(0, 1, rng);
    ASSERT_NE(next, graph::kInvalidVertex);
    ++counts[next];
  }
  // Unnormalized: w * f -> 1: 2 * (1/p) = 4; 2: 3 * 1 = 3; 3: 5 * (1/q) = 2.5.
  std::vector<double> expected = {0.0, 4.0, 3.0, 2.5};
  const double total = 9.5;
  for (auto& e : expected) {
    e /= total;
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
}

TEST(Node2vecTest, SmallPEncouragesBacktracking) {
  const auto edges = SmallWeightedGraph(7);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 30;
  cfg.num_walkers = 2000;
  cfg.record_paths = true;

  const auto count_backtracks = [&](double p) {
    Node2vecParams params;
    params.p = p;
    params.q = 1.0;
    const auto result = RunNode2vec(store, cfg, params, nullptr);
    uint64_t backtracks = 0;
    uint64_t steps = 0;
    for (std::size_t w = 0; w < cfg.num_walkers; ++w) {
      for (uint64_t i = result.path_offsets[w] + 2;
           i < result.path_offsets[w + 1]; ++i) {
        ++steps;
        backtracks += result.paths[i] == result.paths[i - 2] ? 1 : 0;
      }
    }
    return static_cast<double>(backtracks) / static_cast<double>(steps);
  };
  EXPECT_GT(count_backtracks(0.1), count_backtracks(10.0) * 1.5);
}

// Pathological (huge p, q): per-trial acceptance probability is ~1e-9, so
// all kMaxTrials rejection trials exhaust on essentially every draw. The
// stepper must fall back to an exact f-weighted draw over the adjacency
// instead of silently killing the walker (the old behavior, which biased
// corpora toward truncated walks).
TEST(Node2vecTest, RejectionExhaustionFallsBackToExactDraw) {
  // cur = 0 with neighbors {1, 2, 3, 4}; prev = 4 (edge 4 -> 0 exists, and
  // 4 is not adjacent to 1/2/3): candidates 1/2/3 are at distance 2
  // (f = 1/q), candidate 4 is prev (f = 1/p).
  graph::WeightedEdgeList edges = {
      {0, 1, 2.0}, {0, 2, 3.0}, {0, 3, 5.0}, {0, 4, 1.0}, {4, 0, 1.0}};
  BingoStore store(MakeGraph(edges, 8));
  Node2vecParams params;
  params.p = 1e9;
  params.q = 1e9;
  const double f_max = std::max({1.0 / params.p, 1.0, 1.0 / params.q});
  ASSERT_EQ(f_max, 1.0);
  internal::Node2vecStepper<BingoStore> stepper{store, params, f_max};
  util::Rng rng(123);
  std::vector<uint64_t> counts(5, 0);
  constexpr int kSamples = 100000;
  for (int s = 0; s < kSamples; ++s) {
    const VertexId next = stepper.Next(0, 4, rng);
    ASSERT_NE(next, graph::kInvalidVertex);  // regression: walker survives
    ++counts[next];
  }
  // Exact second-order distribution: weight * f, with the common 1e-9
  // factor cancelling -> {2, 3, 5, 1} / 11 over {1, 2, 3, 4}.
  std::vector<double> expected = {0.0, 2.0 / 11, 3.0 / 11, 5.0 / 11,
                                  1.0 / 11};
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
}

TEST(Node2vecTest, ExhaustedWalkerOnDeadEndStillRetires) {
  // cur = 1's only neighbor is prev = 0 with p huge: every trial rejects,
  // and the exact fallback draws the only neighbor (never kInvalidVertex).
  graph::WeightedEdgeList edges = {{0, 1, 1.0}, {1, 0, 1.0}};
  BingoStore store(MakeGraph(edges, 2));
  Node2vecParams params;
  params.p = 1e12;
  params.q = 1.0;
  internal::Node2vecStepper<BingoStore> stepper{store, params, 1.0};
  util::Rng rng(9);
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(stepper.Next(1, 0, rng), 0u);
  }
}

TEST(Node2vecTest, FirstHopIsFirstOrder) {
  graph::WeightedEdgeList edges = {{0, 1, 1.0}};
  BingoStore store(MakeGraph(edges, 2));
  internal::Node2vecStepper<BingoStore> stepper{store, Node2vecParams{}, 2.0};
  util::Rng rng(1);
  EXPECT_EQ(stepper.Next(0, graph::kInvalidVertex, rng), 1u);
}

// --------------------------------------------------------------------- PPR --

TEST(PprTest, ExpectedWalkLengthMatchesStopProbability) {
  const auto edges = SmallWeightedGraph(8);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.walk_length = 80;  // cap becomes 80 * 16 inside RunPpr
  cfg.num_walkers = 20000;
  const auto result = RunPpr(store, cfg, 1.0 / 80.0, nullptr);
  const double mean_length = static_cast<double>(result.total_steps) /
                             static_cast<double>(cfg.num_walkers);
  // Geometric(1/80) expected value is 80; dead ends only shorten it.
  EXPECT_GT(mean_length, 60.0);
  EXPECT_LT(mean_length, 100.0);
  EXPECT_FALSE(result.visit_counts.empty());
}

TEST(PprTest, VisitCountsConcentrateAroundHubs) {
  const auto edges = SmallWeightedGraph(9);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.num_walkers = 4000;
  const auto result = RunPpr(store, cfg, 1.0 / 40.0, nullptr);
  // A power-law graph's most-visited vertex should far exceed the median.
  std::vector<uint32_t> sorted = result.visit_counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), sorted[sorted.size() / 2] * 3);
}

// The 16x geometric-tail cap must saturate, not wrap: walk_length = 2^29
// would overflow to a cap of 0 steps (2^29 * 16 = 2^33 = 0 mod 2^32) and
// silently produce an empty PPR result.
TEST(PprTest, HugeWalkLengthSaturatesInsteadOfWrapping) {
  graph::WeightedEdgeList edges = {{0, 1, 1.0}, {1, 0, 1.0}};
  BingoStore store(MakeGraph(edges, 2));
  WalkConfig cfg;
  cfg.num_walkers = 64;
  cfg.walk_length = uint32_t{1} << 29;
  const auto result = RunPpr(store, cfg, 0.5, nullptr);
  EXPECT_GT(result.total_steps, 0u);  // stop probability ends walks, not cap
}

// ------------------------------------------------------ start-vertex mode --

TEST(EngineTest, StartVertexOverrideStartsEveryWalkerThere) {
  const auto edges = SmallWeightedGraph(15);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.num_walkers = 50;
  cfg.walk_length = 8;
  cfg.record_paths = true;
  cfg.start_vertex = 7;
  const auto result = RunDeepWalk(store, cfg, nullptr);
  ASSERT_EQ(result.path_offsets.size(), 51u);
  for (std::size_t w = 0; w < 50; ++w) {
    EXPECT_EQ(result.paths[result.path_offsets[w]], 7u) << "walker " << w;
  }
}

// An out-of-range start vertex yields an empty (but well-formed) result on
// both execution models rather than out-of-bounds visit/path writes.
TEST(EngineTest, OutOfRangeStartVertexProducesEmptyResult) {
  const auto edges = SmallWeightedGraph(16);
  BingoStore store(MakeGraph(edges));
  WalkConfig cfg;
  cfg.num_walkers = 5;
  cfg.walk_length = 8;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.start_vertex = 100000;
  const auto engine = RunDeepWalk(store, cfg, nullptr);
  EXPECT_EQ(engine.total_steps, 0u);
  EXPECT_TRUE(engine.paths.empty());
  EXPECT_TRUE(engine.visit_counts.empty());

  PartitionedBingoStore partitioned(edges, 256, 4);
  const auto superstep =
      RunPartitionedApp(partitioned, cfg, DeepWalkApp{}, nullptr);
  EXPECT_EQ(superstep.total_steps, 0u);
  EXPECT_TRUE(superstep.paths.empty());
}

// ----------------------------------------------------------- simple walks --

TEST(SimpleSamplingTest, TransitionsAreUniform) {
  graph::WeightedEdgeList edges;
  for (VertexId i = 1; i <= 10; ++i) {
    edges.push_back({0, i, static_cast<double>(i * i)});  // biases ignored
    edges.push_back({i, 0, 1.0});
  }
  BingoStore store(MakeGraph(edges, 16));
  WalkConfig cfg;
  cfg.num_walkers = 30000;
  cfg.walk_length = 1;
  cfg.record_paths = true;
  // All walkers start on vertices 0..15; only those at 0 have 10 choices.
  const auto result = RunSimpleSampling(store, cfg, nullptr);
  std::vector<uint64_t> counts(11, 0);
  uint64_t total = 0;
  for (std::size_t w = 0; w < cfg.num_walkers; ++w) {
    if (result.paths[result.path_offsets[w]] == 0 &&
        result.path_offsets[w + 1] - result.path_offsets[w] == 2) {
      ++counts[result.paths[result.path_offsets[w] + 1]];
      ++total;
    }
  }
  ASSERT_GT(total, 1000u);
  std::vector<double> expected(11, 0.0);
  for (VertexId i = 1; i <= 10; ++i) {
    expected[i] = 0.1;
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
}

// --------------------------------------------------------- baseline stores --

template <typename Store>
void ExpectStoreSamplesBiases(Store& store, VertexId hub,
                              const std::vector<double>& weights) {
  util::Rng rng(55);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (int s = 0; s < 200000; ++s) {
    const VertexId dst = store.SampleNeighbor(hub, rng);
    ASSERT_NE(dst, graph::kInvalidVertex);
    ++counts[dst - 1];
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, util::Normalize(weights), 1e-4));
}

class BaselineStoreTest : public ::testing::Test {
 protected:
  graph::WeightedEdgeList StarEdges() {
    graph::WeightedEdgeList edges;
    weights_.clear();
    for (VertexId i = 1; i <= 25; ++i) {
      const double w = 1.0 + (i % 7) * 3.0;
      edges.push_back({0, i, w});
      weights_.push_back(w);
    }
    return edges;
  }
  std::vector<double> weights_;
};

TEST_F(BaselineStoreTest, AliasStoreSamplesBiases) {
  AliasStore store(MakeGraph(StarEdges(), 32));
  ExpectStoreSamplesBiases(store, 0, weights_);
}

TEST_F(BaselineStoreTest, ItsStoreSamplesBiases) {
  ItsStore store(MakeGraph(StarEdges(), 32));
  ExpectStoreSamplesBiases(store, 0, weights_);
}

TEST_F(BaselineStoreTest, ReservoirStoreSamplesBiases) {
  ReservoirStore store(MakeGraph(StarEdges(), 32));
  ExpectStoreSamplesBiases(store, 0, weights_);
}

TEST_F(BaselineStoreTest, StoresReflectStreamingUpdates) {
  // After inserting a dominating edge and deleting the rest, every store
  // must route all samples to the new edge.
  const auto run = [](auto& store) {
    store.StreamingInsert(1, 2, 100.0);
    util::Rng rng(5);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(store.SampleNeighbor(1, rng), 2u);
    }
    EXPECT_TRUE(store.StreamingDelete(1, 2));
    EXPECT_EQ(store.SampleNeighbor(1, rng), graph::kInvalidVertex);
  };
  AliasStore alias(MakeGraph(StarEdges(), 32));
  run(alias);
  ItsStore its(MakeGraph(StarEdges(), 32));
  run(its);
  ReservoirStore reservoir(MakeGraph(StarEdges(), 32));
  run(reservoir);
}

TEST_F(BaselineStoreTest, ApplyBatchMatchesStreamingEndState) {
  graph::UpdateList updates;
  updates.push_back({graph::Update::Kind::kInsert, 0, 30, 9.0});
  updates.push_back({graph::Update::Kind::kDelete, 0, 1, 0.0});
  updates.push_back({graph::Update::Kind::kInsert, 1, 5, 4.0});

  AliasStore batched(MakeGraph(StarEdges(), 32));
  AliasStore streamed(MakeGraph(StarEdges(), 32));
  batched.ApplyBatch(updates);
  for (const auto& u : updates) {
    if (u.kind == graph::Update::Kind::kInsert) {
      streamed.StreamingInsert(u.src, u.dst, u.bias);
    } else {
      streamed.StreamingDelete(u.src, u.dst);
    }
  }
  EXPECT_EQ(batched.Graph().NumEdges(), streamed.Graph().NumEdges());
  EXPECT_TRUE(batched.Graph().HasEdge(0, 30));
  EXPECT_FALSE(batched.Graph().HasEdge(0, 1));
  EXPECT_TRUE(batched.Graph().HasEdge(1, 5));
}

// All four stores draw the same distribution on the same graph.
TEST(StoreAgreementTest, AllStoresAgreeOnTransitions) {
  const auto edges = SmallWeightedGraph(10);
  VertexId hub = 0;
  {
    BingoStore probe(MakeGraph(edges));
    for (VertexId v = 0; v < 256; ++v) {
      if (probe.Graph().Degree(v) > probe.Graph().Degree(hub)) {
        hub = v;
      }
    }
  }
  const auto histogram_for = [&](auto& store) {
    util::Rng rng(999);
    std::map<VertexId, uint64_t> counts;
    for (int s = 0; s < 120000; ++s) {
      ++counts[store.SampleNeighbor(hub, rng)];
    }
    return counts;
  };
  BingoStore bingo(MakeGraph(edges));
  AliasStore alias(MakeGraph(edges));
  ItsStore its(MakeGraph(edges));
  ReservoirStore reservoir(MakeGraph(edges));

  const auto adj = bingo.Graph().Neighbors(hub);
  double total = 0;
  for (const auto& e : adj) {
    total += e.bias;
  }
  std::vector<double> expected;
  for (const auto& e : adj) {
    expected.push_back(e.bias / total);
  }
  const std::vector<std::map<VertexId, uint64_t>> histograms = {
      histogram_for(bingo), histogram_for(alias), histogram_for(its),
      histogram_for(reservoir)};
  for (const auto& counts_map : histograms) {
    std::vector<uint64_t> counts;
    for (const auto& e : adj) {
      const auto it = counts_map.find(e.dst);
      counts.push_back(it == counts_map.end() ? 0 : it->second);
    }
    EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
  }
}

// ------------------------------------------------------- partitioned store --

TEST(PartitionedTest, ShardsPassInvariantsAndSampleCorrectly) {
  const auto edges = SmallWeightedGraph(11);
  PartitionedBingoStore store(edges, 256, 4);
  EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();

  // Per-vertex sampling distribution equals the unpartitioned store's.
  BingoStore reference(MakeGraph(edges));
  VertexId hub = 0;
  for (VertexId v = 0; v < 256; ++v) {
    if (reference.Graph().Degree(v) > reference.Graph().Degree(hub)) {
      hub = v;
    }
  }
  const auto adj = reference.Graph().Neighbors(hub);
  double total = 0;
  for (const auto& e : adj) {
    total += e.bias;
  }
  std::vector<double> expected;
  for (const auto& e : adj) {
    expected.push_back(e.bias / total);
  }
  util::Rng rng(31);
  std::map<VertexId, uint64_t> histogram;
  for (int s = 0; s < 150000; ++s) {
    ++histogram[store.SampleNeighbor(hub, rng)];
  }
  std::vector<uint64_t> counts;
  for (const auto& e : adj) {
    counts.push_back(histogram[e.dst]);
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected, 1e-4));
}

TEST(PartitionedTest, UpdatesRouteToOwningShard) {
  const auto edges = SmallWeightedGraph(12);
  PartitionedBingoStore store(edges, 256, 3);
  store.StreamingInsert(5, 9, 7.0);
  EXPECT_TRUE(store.Shard(store.ShardOf(5)).Graph().HasEdge(5, 9));
  EXPECT_TRUE(store.StreamingDelete(5, 9));
  EXPECT_FALSE(store.Shard(store.ShardOf(5)).Graph().HasEdge(5, 9));

  graph::UpdateList batch;
  for (VertexId v = 0; v < 30; ++v) {
    batch.push_back({graph::Update::Kind::kInsert, v, (v + 1) % 256, 2.0});
  }
  const auto result = store.ApplyBatch(batch);
  EXPECT_EQ(result.inserted, 30u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(PartitionedTest, WalkerTransferWalksMatchExpectedVolume) {
  const auto edges = SmallWeightedGraph(13);
  PartitionedBingoStore store(edges, 256, 4);
  WalkConfig cfg;
  cfg.walk_length = 20;
  const auto result = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);
  // The undirected R-MAT graph has few dead ends; most walkers should walk
  // most of their length, and cross-shard transfers must dominate with
  // round-robin partitioning.
  EXPECT_GT(result.total_steps, 256u * 10);
  EXPECT_GT(result.walker_migrations, result.total_steps / 2);
  EXPECT_GE(result.supersteps, 20u);
}

TEST(PartitionedTest, ShardCountsPreserveEdgeTotals) {
  const auto edges = SmallWeightedGraph(14);
  for (const int shards : {1, 2, 5, 8}) {
    PartitionedBingoStore store(edges, 256, shards);
    uint64_t total = 0;
    for (int s = 0; s < shards; ++s) {
      total += store.Shard(s).Graph().NumEdges();
    }
    EXPECT_EQ(total, edges.size());
  }
}

}  // namespace
}  // namespace bingo::walk
