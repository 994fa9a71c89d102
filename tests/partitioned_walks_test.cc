// The generalized walker-transfer superstep driver (RunPartitionedApp):
// DeepWalk / node2vec / PPR steppers must produce results that are
// deterministic across shard counts 1/2/8, bit-identical to the
// shared-memory engine driving the same stepper (PartitionedBingoStore
// samples bit-identically to BingoStore per the store.h contract), and
// chi-square-consistent with the exact edge-weight distribution. Also the
// regression coverage for the per-walker RNG stream derivation: one
// persistent ForStream(seed, id) stream per walker, so distinct walkers can
// never share a variate sequence.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
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

void ExpectSameAsEngine(const WalkResult& engine,
                        const PartitionedWalkResult& superstep) {
  EXPECT_EQ(superstep.total_steps, engine.total_steps);
  EXPECT_EQ(superstep.finished_walkers, engine.finished_walkers);
  EXPECT_EQ(superstep.path_offsets, engine.path_offsets);
  EXPECT_EQ(superstep.paths, engine.paths);
  EXPECT_EQ(superstep.visit_counts, engine.visit_counts);
}

// ------------------------------------------ engine bit-identity, per app --

TEST(PartitionedWalksTest, DeepWalkMatchesEngineAcrossShardCounts) {
  const auto edges = TestGraph(21);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  cfg.count_visits = true;
  const WalkResult engine = RunDeepWalk(reference, cfg, nullptr);

  util::ThreadPool pool(4);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PartitionedBingoStore store(edges, kNumVertices, shards);
    const auto serial = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);
    const auto parallel = RunPartitionedApp(store, cfg, DeepWalkApp{}, &pool);
    ExpectSameAsEngine(engine, serial);
    ExpectSameAsEngine(engine, parallel);
    if (shards == 1) {
      EXPECT_EQ(serial.walker_migrations, 0u);
    }
    EXPECT_EQ(serial.walker_migrations, parallel.walker_migrations);
    EXPECT_LE(serial.supersteps, cfg.walk_length);
  }
}

TEST(PartitionedWalksTest, Node2vecMatchesEngineAcrossShardCounts) {
  const auto edges = TestGraph(22);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  WalkConfig cfg;
  cfg.walk_length = 16;
  cfg.num_walkers = 400;
  cfg.record_paths = true;
  Node2vecParams params;
  params.p = 0.25;
  params.q = 4.0;
  const WalkResult engine = RunNode2vec(reference, cfg, params, nullptr);
  EXPECT_GT(engine.total_steps, 0u);

  util::ThreadPool pool(4);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PartitionedBingoStore store(edges, kNumVertices, shards);
    // Second-order state survives shard hops: the walker record carries
    // prev, and HasEdge(prev, ·) routes to prev's owning shard.
    ExpectSameAsEngine(
        engine, RunPartitionedApp(store, cfg, Node2vecApp{params}, nullptr));
    ExpectSameAsEngine(
        engine, RunPartitionedApp(store, cfg, Node2vecApp{params}, &pool));
  }
}

TEST(PartitionedWalksTest, PprMatchesEngineAcrossShardCounts) {
  const auto edges = TestGraph(23);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  WalkConfig cfg;
  cfg.walk_length = 40;  // cap becomes 40 * 16 on both paths
  cfg.num_walkers = 600;
  const double stop = 1.0 / 20.0;
  const WalkResult engine = RunPpr(reference, cfg, stop, nullptr);

  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PartitionedBingoStore store(edges, kNumVertices, shards);
    const auto superstep = RunPartitionedApp(store, cfg, PprApp{stop}, nullptr);
    // Terminate() draws consume the same per-walker stream positions as the
    // engine, so the geometric stopping times — and hence the visit counts —
    // are identical, not just identically distributed.
    EXPECT_EQ(superstep.total_steps, engine.total_steps);
    EXPECT_EQ(superstep.finished_walkers, engine.finished_walkers);
    EXPECT_EQ(superstep.visit_counts, engine.visit_counts);
    EXPECT_LE(superstep.walker_migrations, superstep.total_steps);
  }
}

TEST(PartitionedWalksTest, StartVertexOverrideMatchesEngine) {
  const auto edges = TestGraph(24);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  // Single-source PPR query on the walker-transfer path.
  VertexId hub = 0;
  for (VertexId v = 0; v < kNumVertices; ++v) {
    if (reference.Graph().Degree(v) > reference.Graph().Degree(hub)) {
      hub = v;
    }
  }
  WalkConfig cfg;
  cfg.num_walkers = 500;
  cfg.walk_length = 64;
  cfg.count_visits = true;
  cfg.start_vertex = hub;
  const WalkResult engine = RunApp(reference, cfg, PprApp{1.0 / 16.0});

  PartitionedBingoStore store(edges, kNumVertices, 4);
  const auto superstep =
      RunPartitionedApp(store, cfg, PprApp{1.0 / 16.0}, nullptr);
  EXPECT_EQ(superstep.total_steps, engine.total_steps);
  EXPECT_EQ(superstep.visit_counts, engine.visit_counts);
  EXPECT_GT(superstep.visit_counts[hub], 0u);
}

// ------------------------------------------------- RNG stream regression --

// The driver derives exactly one persistent stream per walker. Regression
// for the old per-step re-seeding (seed ^ (steps << 40)): no two walkers may
// ever share a variate sequence.
TEST(PartitionedWalksTest, WalkerStreamsNeverCollide) {
  constexpr uint64_t kWalkers = 4096;
  constexpr uint64_t kSeed = 42;
  std::set<std::vector<uint64_t>> prefixes;
  for (uint64_t w = 0; w < kWalkers; ++w) {
    util::Rng rng = util::Rng::ForStream(kSeed, w);
    prefixes.insert({rng.Next(), rng.Next(), rng.Next(), rng.Next()});
  }
  EXPECT_EQ(prefixes.size(), kWalkers);
}

// A walker's stream advances across supersteps instead of being re-derived:
// two consecutive hops of one walker must consume different variates. Pinned
// through the path corpus — on a graph with no 1-cycles, a frozen stream
// would walk A->B->A->B; the persistent stream makes revisits statistical,
// not structural. Cheap structural proxy: the driver's paths equal the
// engine's (already asserted above), so here just pin stream progression.
TEST(PartitionedWalksTest, WalkerStreamAdvancesAcrossSupersteps) {
  util::Rng a = util::Rng::ForStream(7, 3);
  util::Rng b = util::Rng::ForStream(7, 3);
  const uint64_t first = a.Next();
  (void)b.Next();
  EXPECT_NE(b.Next(), first);  // position 2 differs from position 1
}

// ------------------------------------------------ chi-square consistency --

// Transition frequencies out of the busiest vertex across a superstep-path
// corpus must fit the exact edge-weight distribution — the same ground truth
// the shared-memory engine's corpus fits (TransitionTest in walk_test.cc).
TEST(PartitionedWalksTest, SuperstepTransitionsMatchBiases) {
  const auto edges = TestGraph(25);
  PartitionedBingoStore store(edges, kNumVertices, 4);
  WalkConfig cfg;
  cfg.walk_length = 40;
  cfg.num_walkers = 4096;
  cfg.record_paths = true;
  const auto result = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);

  VertexId hub = 0;
  std::size_t hub_degree = 0;
  for (VertexId v = 0; v < kNumVertices; ++v) {
    if (store.NeighborsOf(v).size() > hub_degree) {
      hub_degree = store.NeighborsOf(v).size();
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
  const auto adj = store.NeighborsOf(hub);
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

// -------------------------------------------------------------- edge cases --

TEST(PartitionedWalksTest, ZeroLengthWalksRecordStartsOnly) {
  const auto edges = TestGraph(26);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  PartitionedBingoStore store(edges, kNumVertices, 3);
  WalkConfig cfg;
  cfg.walk_length = 0;
  cfg.num_walkers = 10;
  cfg.record_paths = true;
  cfg.count_visits = true;
  const WalkResult engine = RunDeepWalk(reference, cfg, nullptr);
  const auto superstep = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);
  ExpectSameAsEngine(engine, superstep);
  EXPECT_EQ(superstep.total_steps, 0u);
  EXPECT_EQ(superstep.supersteps, 0u);
  ASSERT_EQ(superstep.path_offsets.size(), 11u);
  EXPECT_EQ(superstep.path_offsets.back(), 10u);  // one start vertex each
}

TEST(PartitionedWalksTest, AccountingInvariantsHold) {
  const auto edges = TestGraph(27);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PartitionedBingoStore store(edges, kNumVertices, shards);
    WalkConfig cfg;
    cfg.walk_length = 25;
    const auto result = RunPartitionedApp(store, cfg, DeepWalkApp{}, nullptr);
    EXPECT_GT(result.total_steps, 0u);
    EXPECT_LE(result.finished_walkers, uint64_t{kNumVertices});
    EXPECT_LE(result.walker_migrations, result.total_steps);
    EXPECT_GE(result.supersteps, 1u);
    EXPECT_LE(result.supersteps, cfg.walk_length);
    if (shards == 1) {
      EXPECT_EQ(result.walker_migrations, 0u);
    }
  }
}

}  // namespace
}  // namespace bingo::walk
