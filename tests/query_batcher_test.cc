// Fused walk passes (walk/fused.h) and the QueryBatcher front-end
// (walk/query_batcher.h).
//
// The contract under test is bit-identity: a fused pass — walkers advancing
// step-synchronously with lane-batched SIMD draws and prefetch — must
// return exactly the WalkResult the scalar per-query engine returns for the
// same WalkConfig, for every application, chunking, and SIMD level. The
// batcher inherits that contract, so its futures are compared against the
// direct service path.

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/fused.h"
#include "src/walk/query_batcher.h"
#include "src/walk/service.h"
#include "src/walk/sharded_service.h"

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

void ExpectSameResult(const WalkResult& fused, const WalkResult& engine,
                      const std::string& context) {
  EXPECT_EQ(fused.total_steps, engine.total_steps) << context;
  EXPECT_EQ(fused.finished_walkers, engine.finished_walkers) << context;
  EXPECT_EQ(fused.path_offsets, engine.path_offsets) << context;
  EXPECT_EQ(fused.paths, engine.paths) << context;
  EXPECT_EQ(fused.visit_counts, engine.visit_counts) << context;
}

// A spread of configs covering the engine's branchy corners: sub-chunk and
// multi-chunk walker counts, single-source starts, paths and visits on and
// off, and the invalid-start early return.
std::vector<WalkConfig> CoveringConfigs() {
  std::vector<WalkConfig> cfgs;
  {
    WalkConfig cfg;  // one walker per vertex, exactly one chunk
    cfg.walk_length = 20;
    cfg.record_paths = true;
    cfg.count_visits = true;
    cfgs.push_back(cfg);
  }
  {
    WalkConfig cfg;  // multi-chunk, uneven tail
    cfg.num_walkers = 700;
    cfg.walk_length = 15;
    cfg.record_paths = true;
    cfg.seed = 7;
    cfgs.push_back(cfg);
  }
  {
    WalkConfig cfg;  // single walker
    cfg.num_walkers = 1;
    cfg.walk_length = 40;
    cfg.record_paths = true;
    cfg.count_visits = true;
    cfg.seed = 9;
    cfgs.push_back(cfg);
  }
  {
    WalkConfig cfg;  // single-source (all walkers share one start vertex)
    cfg.num_walkers = 512;
    cfg.walk_length = 12;
    cfg.start_vertex = 3;
    cfg.count_visits = true;
    cfg.seed = 11;
    cfgs.push_back(cfg);
  }
  {
    WalkConfig cfg;  // out-of-range start: the empty-result early return
    cfg.num_walkers = 64;
    cfg.record_paths = true;
    cfg.start_vertex = kNumVertices + 5;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

// ----------------------------------------------------- fused vs engine --

TEST(FusedWalksTest, DeepWalkBitIdenticalToEngine) {
  const auto edges = TestGraph(301);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  util::ThreadPool pool(4);
  for (const WalkConfig& cfg : CoveringConfigs()) {
    const WalkResult engine = RunDeepWalk(store, cfg);
    WalkResult serial;
    RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                     std::span<WalkResult>(&serial, 1));
    ExpectSameResult(serial, engine, "serial fused");
    WalkResult pooled;
    RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                     std::span<WalkResult>(&pooled, 1), &pool);
    ExpectSameResult(pooled, engine, "pooled fused");
  }
}

TEST(FusedWalksTest, PprBitIdenticalToEngine) {
  const auto edges = TestGraph(302);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  util::ThreadPool pool(4);
  for (double stop : {1.0 / 80.0, 0.25}) {
    WalkConfig cfg;
    cfg.num_walkers = 600;
    cfg.walk_length = 10;  // PPR caps to 160 internally on both paths
    cfg.start_vertex = 17;
    cfg.seed = 21;
    const WalkResult engine = RunPpr(store, cfg, stop);
    WalkResult fused;
    RunPprFused(store, std::span<const WalkConfig>(&cfg, 1),
                std::span<WalkResult>(&fused, 1), stop, &pool);
    ExpectSameResult(fused, engine, "ppr fused");
  }
}

TEST(FusedWalksTest, Node2vecBitIdenticalToEngine) {
  // Second-order stepper: the fused driver must keep it scalar per walker
  // (no batched draws) yet still match through its chunked apply path.
  const auto edges = TestGraph(303);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  util::ThreadPool pool(4);
  const Node2vecParams params{0.25, 4.0};
  WalkConfig cfg;
  cfg.num_walkers = 520;
  cfg.walk_length = 12;
  cfg.record_paths = true;
  cfg.seed = 31;
  const WalkResult engine = RunNode2vec(store, cfg, params);
  WalkResult fused;
  RunFusedApp(store, std::span<const WalkConfig>(&cfg, 1),
              Node2vecApp{params}, std::span<WalkResult>(&fused, 1), &pool);
  ExpectSameResult(fused, engine, "node2vec fused");
}

TEST(FusedWalksTest, ForcedScalarMatchesSimdAndEngine) {
  const auto edges = TestGraph(304);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  WalkConfig cfg;
  cfg.num_walkers = 900;
  cfg.walk_length = 25;
  cfg.record_paths = true;
  cfg.count_visits = true;
  cfg.seed = 41;
  const WalkResult engine = RunDeepWalk(store, cfg);
  WalkResult simd;
  RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                   std::span<WalkResult>(&simd, 1));
  WalkResult scalar;
  {
    util::ScopedForceScalar force_scalar;
    RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                     std::span<WalkResult>(&scalar, 1));
  }
  ExpectSameResult(simd, engine, "simd lanes");
  ExpectSameResult(scalar, engine, "forced scalar");
}

TEST(FusedWalksTest, MultiQueryPassMatchesPerQueryRuns) {
  const auto edges = TestGraph(305);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  util::ThreadPool pool(4);
  const auto cfgs_vec = CoveringConfigs();
  const std::span<const WalkConfig> cfgs(cfgs_vec);
  std::vector<WalkResult> fused(cfgs.size());
  RunDeepWalkFused(store, cfgs, std::span<WalkResult>(fused), &pool);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const WalkResult engine = RunDeepWalk(store, cfgs[i]);
    ExpectSameResult(fused[i], engine, "query " + std::to_string(i));
  }
}

TEST(FusedWalksTest, LongRecordedWalksFallBackBitIdentically) {
  // Recorded paths beyond the fused slab bound route through the scalar
  // engine; the caller must not be able to tell.
  const auto edges = TestGraph(306);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  WalkConfig cfg;
  cfg.num_walkers = 40;
  cfg.walk_length = 5000;
  cfg.record_paths = true;
  cfg.seed = 51;
  const WalkResult engine = RunDeepWalk(store, cfg);
  WalkResult fused;
  RunDeepWalkFused(store, std::span<const WalkConfig>(&cfg, 1),
                   std::span<WalkResult>(&fused, 1));
  ExpectSameResult(fused, engine, "long-walk fallback");
}

// ------------------------------------------------ batcher vs direct path --

WalkQuery DeepWalkQuery(WalkConfig cfg) {
  WalkQuery q;
  q.app = WalkApp::kDeepWalk;
  q.cfg = cfg;
  return q;
}

TEST(QueryBatcherTest, ResultsMatchDirectServiceQueries) {
  const auto edges = TestGraph(401);
  const auto service = MakeWalkService(edges, kNumVertices);
  util::ThreadPool pool(4);
  QueryBatcherOptions options;
  options.max_delay_seconds = 0.01;
  QueryBatcher batcher(*service, options, &pool);

  std::vector<WalkQuery> queries;
  for (const WalkConfig& cfg : CoveringConfigs()) {
    queries.push_back(DeepWalkQuery(cfg));
  }
  {
    WalkQuery q;
    q.app = WalkApp::kPpr;
    q.cfg.num_walkers = 300;
    q.cfg.walk_length = 8;
    q.cfg.start_vertex = 5;
    q.stop_probability = 0.1;
    queries.push_back(q);
  }
  {
    WalkQuery q;
    q.app = WalkApp::kNode2vec;
    q.cfg.num_walkers = 280;
    q.cfg.walk_length = 10;
    q.cfg.record_paths = true;
    q.node2vec = {0.5, 2.0};
    queries.push_back(q);
  }

  std::vector<std::future<WalkResult>> futures;
  for (const WalkQuery& q : queries) {
    futures.push_back(batcher.Submit(q));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const WalkQuery& q = queries[i];
    WalkResult direct;
    switch (q.app) {
      case WalkApp::kDeepWalk:
        direct = service->DeepWalk(q.cfg);
        break;
      case WalkApp::kPpr:
        direct = service->Ppr(q.cfg, q.stop_probability);
        break;
      case WalkApp::kNode2vec:
        direct = service->Node2vec(q.cfg, q.node2vec);
        break;
    }
    ExpectSameResult(futures[i].get(), direct, "query " + std::to_string(i));
  }
  const auto stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_GE(stats.dispatches, 1u);
  EXPECT_GE(stats.fused_groups, 3u);  // at least one group per application
}

class ShardedQueryBatcherTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedQueryBatcherTest, ResultsMatchDirectShardedQueries) {
  const int shards = GetParam();
  const auto edges = TestGraph(402);
  const auto service = MakeShardedWalkService(edges, kNumVertices, shards);
  util::ThreadPool pool(4);
  QueryBatcherOptions options;
  options.max_delay_seconds = 0.01;
  ShardedQueryBatcher batcher(*service, options, &pool);

  std::vector<WalkQuery> queries;
  for (const WalkConfig& cfg : CoveringConfigs()) {
    queries.push_back(DeepWalkQuery(cfg));
  }
  {
    WalkQuery q;
    q.app = WalkApp::kPpr;
    q.cfg.num_walkers = 256;
    q.cfg.walk_length = 6;
    q.cfg.start_vertex = 9;
    queries.push_back(q);
  }
  std::vector<std::future<WalkResult>> futures;
  for (const WalkQuery& q : queries) {
    futures.push_back(batcher.Submit(q));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const WalkQuery& q = queries[i];
    const WalkResult direct = q.app == WalkApp::kPpr
                                  ? service->Ppr(q.cfg, q.stop_probability)
                                  : service->DeepWalk(q.cfg);
    ExpectSameResult(futures[i].get(), direct,
                     "shards=" + std::to_string(shards) + " query " +
                         std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedQueryBatcherTest,
                         ::testing::Values(1, 2, 8));

TEST(QueryBatcherTest, ConcurrentSubmittersAllComplete) {
  const auto edges = TestGraph(403);
  const auto service = MakeWalkService(edges, kNumVertices);
  util::ThreadPool pool(4);
  QueryBatcher batcher(*service, {}, &pool);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  std::vector<std::vector<uint64_t>> totals(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalkConfig cfg;
        cfg.num_walkers = 64;
        cfg.walk_length = 10;
        cfg.seed = static_cast<uint64_t>(t * 1000 + i);
        totals[t].push_back(batcher.Run(DeepWalkQuery(cfg)).total_steps);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  batcher.Flush();
  const auto stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Determinism: re-running any of the queries directly reproduces the
  // total the batcher returned.
  WalkConfig probe;
  probe.num_walkers = 64;
  probe.walk_length = 10;
  probe.seed = 3 * 1000 + 7;
  EXPECT_EQ(totals[3][7], service->DeepWalk(probe).total_steps);
}

TEST(QueryBatcherTest, CoalescesBurstsIntoFewDispatches) {
  const auto edges = TestGraph(404);
  const auto service = MakeWalkService(edges, kNumVertices);
  QueryBatcherOptions options;
  options.max_batch_queries = 16;
  options.max_delay_seconds = 0.05;  // wide window so the burst coalesces
  QueryBatcher batcher(*service, options);

  std::vector<std::future<WalkResult>> futures;
  for (int i = 0; i < 16; ++i) {
    WalkConfig cfg;
    cfg.num_walkers = 32;
    cfg.walk_length = 5;
    cfg.seed = static_cast<uint64_t>(i);
    futures.push_back(batcher.Submit(DeepWalkQuery(cfg)));
  }
  for (auto& f : futures) {
    f.get();
  }
  // Futures resolve before the dispatcher re-locks to publish stats;
  // Flush() synchronizes with that publication.
  batcher.Flush();
  const auto stats = batcher.Stats();
  EXPECT_EQ(stats.completed, 16u);
  // All 16 DeepWalk queries share one group identity, so however the
  // dispatcher slices the burst, coalescing must beat one-by-one.
  EXPECT_LT(stats.dispatches, 16u);
  EXPECT_GT(stats.CoalesceRatio(), 1.0);
}

TEST(QueryBatcherTest, DestructorDrainsPendingQueries) {
  const auto edges = TestGraph(405);
  const auto service = MakeWalkService(edges, kNumVertices);
  std::vector<std::future<WalkResult>> futures;
  {
    QueryBatcherOptions options;
    options.max_batch_queries = 1000;   // never size-triggered
    options.max_delay_seconds = 30.0;   // never time-triggered in-test
    QueryBatcher batcher(*service, options);
    for (int i = 0; i < 5; ++i) {
      WalkConfig cfg;
      cfg.num_walkers = 16;
      cfg.walk_length = 4;
      cfg.seed = static_cast<uint64_t>(i);
      futures.push_back(batcher.Submit(DeepWalkQuery(cfg)));
    }
  }  // destructor must complete every future, not abandon them
  for (auto& f : futures) {
    EXPECT_GT(f.get().total_steps, 0u);
  }
}

// ----------------------------------------------------- allocation pins --

TEST(FusedWalksTest, SteadyStateFusedPassesAllocateNothing) {
  // The fused SoA buffers are ephemeral per chunk (peak demand follows how
  // many chunks overlap), so the pin is convergence: once two consecutive
  // passes take no fresh pool memory, every lease is served from free
  // lists.
  const auto edges = TestGraph(501);
  BingoStore store(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  util::ThreadPool pool(4);
  WalkConfig cfg;
  cfg.num_walkers = 2048;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  cfg.count_visits = true;
  std::vector<WalkConfig> cfgs(4, cfg);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].seed = 100 + i;
  }
  std::vector<WalkResult> results(cfgs.size());
  uint64_t fresh_before = pool.ScratchMemory().Stats().FreshAllocations();
  int consecutive_clean = 0;
  for (int attempt = 0; attempt < 32 && consecutive_clean < 2; ++attempt) {
    RunDeepWalkFused(store, std::span<const WalkConfig>(cfgs),
                     std::span<WalkResult>(results), &pool);
    const uint64_t fresh_after =
        pool.ScratchMemory().Stats().FreshAllocations();
    consecutive_clean = fresh_after == fresh_before ? consecutive_clean + 1 : 0;
    fresh_before = fresh_after;
  }
  EXPECT_EQ(consecutive_clean, 2) << "fused scratch demand never converged";
  EXPECT_GT(pool.ScratchMemory().Stats().free_list_hits, 0u);
  EXPECT_EQ(pool.ScratchMemory().LiveBytes(), 0u)
      << "every fused-pass buffer must be returned to the pool";
}

}  // namespace
}  // namespace bingo::walk
