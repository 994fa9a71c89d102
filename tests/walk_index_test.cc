// WalkIndexService: the always-fresh walk index mounted on a live service.
//
// Covers the service-integration contract (index-served reads track a
// standalone corpus bit for bit under the always-fresh default), the
// bounded-staleness contract, the UpdateBatcher flush hook on the sharded
// service, and — under the `persistence` ctest label — crash recovery: a
// RecoverWalkIndexService'd corpus must serve walks identical to the
// service that never crashed, via the corpus checkpoint's wal_seq fence
// plus repair replay.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/batcher.h"
#include "src/walk/index_service.h"
#include "src/walk/service.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {
namespace {

using core::BingoStore;
using graph::VertexId;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bingo_walk_index_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct TestGraph {
  VertexId num_vertices = 0;
  graph::WeightedEdgeList edges;
};

TestGraph MakeGraph(uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  const int scale = 7;
  const VertexId n = VertexId{1} << scale;
  auto pairs = graph::GenerateRmat(scale, n * 6, rng);
  graph::MakeUndirected(pairs);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(n, pairs);
  graph::BiasParams params;
  const auto biases = graph::GenerateBiases(csr, params, rng);
  return {n, graph::ToWeightedEdges(csr, biases)};
}

graph::UpdateList RandomBatch(util::Rng& rng, VertexId n, std::size_t count) {
  graph::UpdateList updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(n));
    const auto dst = static_cast<VertexId>(rng.NextBounded(n));
    if (rng.NextBool(0.25)) {
      updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
    } else {
      updates.push_back(
          {graph::Update::Kind::kInsert, src, dst, 1.0 + rng.NextUnit() * 7.0});
    }
  }
  return updates;
}

WalkIndexService::Options SmallIndexOptions() {
  WalkIndexService::Options options;
  options.corpus.walk_length = 20;
  return options;
}

void ExpectIdenticalCorpora(const IncrementalWalkCorpus& a,
                            const IncrementalWalkCorpus& b) {
  ASSERT_EQ(a.NumWalks(), b.NumWalks());
  for (uint64_t w = 0; w < a.NumWalks(); ++w) {
    ASSERT_EQ(a.Walk(w), b.Walk(w)) << "walk " << w;
  }
  EXPECT_EQ(a.VisitCounts(), b.VisitCounts());
  EXPECT_EQ(a.TotalVisits(), b.TotalVisits());
  EXPECT_EQ(a.repair_epoch(), b.repair_epoch());
}

// Always-fresh default: the mounted index's corpus evolves bit-identically
// to a standalone IncrementalWalkCorpus fed the same batches — the mount
// changes where repairs run, never what they produce.
TEST(WalkIndexServiceTest, TracksStandaloneCorpusBitIdentically) {
  const TestGraph g = MakeGraph(1);
  util::ThreadPool pool(4);
  auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  WalkIndexService index(*service, SmallIndexOptions(), &pool);

  BingoStore reference(graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  IncrementalWalkCorpus standalone(reference, SmallIndexOptions().corpus);
  standalone.Generate(reference);

  util::Rng rng(7);
  for (int round = 0; round < 6; ++round) {
    const graph::UpdateList batch = RandomBatch(rng, g.num_vertices, 40);
    index.ApplyBatch(batch);
    standalone.ApplyUpdates(reference, batch, /*pool=*/nullptr);
    ExpectIdenticalCorpora(index.corpus(), standalone);
    ASSERT_TRUE(index.CheckValid().empty()) << index.CheckValid();
  }
  const WalkIndexStats stats = index.Stats();
  EXPECT_EQ(stats.batches_observed, 6u);
  EXPECT_EQ(stats.repairs, 6u);  // always fresh: one repair per batch
  EXPECT_EQ(stats.pending_updates, 0u);
}

// Index-served reads: QueryWalks returns stored rows in WalkResult shape,
// and PprScores normalizes the corpus visit counts.
TEST(WalkIndexServiceTest, ServesCorpusReads) {
  const TestGraph g = MakeGraph(2);
  util::ThreadPool pool(2);
  auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  WalkIndexService index(*service, SmallIndexOptions(), &pool);

  const WalkResult result = index.QueryWalks(/*first_walk=*/5, /*count=*/10);
  ASSERT_EQ(result.path_offsets.size(), 11u);
  for (uint64_t i = 0; i < 10; ++i) {
    const auto& walk = index.corpus().Walk((5 + i) % index.NumWalks());
    ASSERT_EQ(result.path_offsets[i + 1] - result.path_offsets[i],
              walk.size());
    for (std::size_t p = 0; p < walk.size(); ++p) {
      EXPECT_EQ(result.paths[result.path_offsets[i] + p], walk[p]);
    }
  }

  const std::vector<double> scores = index.PprScores();
  ASSERT_EQ(scores.size(), index.VisitCounts().size());
  double total = 0.0;
  for (const double s : scores) {
    ASSERT_GE(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Bounded staleness: below the bound updates queue without repairing; the
// batch that crosses it forces a repair before returning.
TEST(WalkIndexServiceTest, StalenessBoundForcesRepair) {
  const TestGraph g = MakeGraph(3);
  util::ThreadPool pool(2);
  auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  WalkIndexService::Options options = SmallIndexOptions();
  options.max_pending_updates = 100;
  WalkIndexService index(*service, options, &pool);

  util::Rng rng(11);
  index.ApplyBatch(RandomBatch(rng, g.num_vertices, 40));
  EXPECT_EQ(index.PendingUpdates(), 40u);  // within the bound: still stale
  EXPECT_EQ(index.Stats().repairs, 0u);

  index.ApplyBatch(RandomBatch(rng, g.num_vertices, 70));  // 110 >= 100
  EXPECT_EQ(index.PendingUpdates(), 0u);
  const WalkIndexStats stats = index.Stats();
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.forced_repairs, 1u);

  // Refresh() drains whatever is pending on demand.
  index.ApplyBatch(RandomBatch(rng, g.num_vertices, 10));
  EXPECT_EQ(index.PendingUpdates(), 10u);
  index.Refresh();
  EXPECT_EQ(index.PendingUpdates(), 0u);
  ASSERT_TRUE(index.CheckValid().empty()) << index.CheckValid();
}

// The staleness bound must not change WHAT the corpus converges to, only
// when: after a final Refresh, a bounded index matches an always-fresh one
// that drained at the same batch boundaries.
TEST(WalkIndexServiceTest, BoundedIndexConvergesToSameCorpus) {
  const TestGraph g = MakeGraph(4);
  util::ThreadPool pool(2);
  auto fresh_service =
      MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  auto lazy_service =
      MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  WalkIndexService fresh(*fresh_service, SmallIndexOptions(), &pool);
  WalkIndexService::Options lazy_options = SmallIndexOptions();
  lazy_options.max_pending_updates = 1000000;  // never forced
  WalkIndexService lazy(*lazy_service, lazy_options, &pool);

  // The fresh index repairs per batch; feed the lazy one the concatenation
  // and drain once — same single repair epoch as one fresh mega-batch.
  util::Rng rng(13);
  graph::UpdateList all;
  for (int round = 0; round < 3; ++round) {
    const graph::UpdateList batch = RandomBatch(rng, g.num_vertices, 30);
    lazy.ApplyBatch(batch);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  fresh.ApplyBatch(all);
  lazy.Refresh();
  ExpectIdenticalCorpora(fresh.corpus(), lazy.corpus());
}

// Sharded live integration: an UpdateBatcher drains into the sharded
// service and announces each applied batch through on_batch_applied; the
// index follows along and is exactly consistent after Flush + Refresh.
TEST(WalkIndexServiceTest, ShardedBatcherKeepsIndexConsistent) {
  const TestGraph g = MakeGraph(5);
  util::ThreadPool pool(4);
  auto service =
      MakeShardedWalkService(g.edges, g.num_vertices, 4, {}, &pool, &pool);
  WalkIndexServiceT<ShardedWalkService>::Options options;
  options.corpus = SmallIndexOptions().corpus;
  WalkIndexServiceT<ShardedWalkService> index(*service, options, &pool);

  BatcherOptions batcher_options;
  batcher_options.on_batch_applied = [&](int, const graph::UpdateList& batch) {
    index.NotifyApplied(batch);
  };
  UpdateBatcher batcher(*service, batcher_options);

  util::Rng rng(17);
  const graph::UpdateList updates = RandomBatch(rng, g.num_vertices, 500);
  batcher.SubmitAll(updates);
  batcher.Flush();
  index.Refresh();

  const WalkIndexStats stats = index.Stats();
  EXPECT_EQ(stats.updates_observed, updates.size());
  EXPECT_EQ(stats.pending_updates, 0u);
  ASSERT_TRUE(index.CheckValid().empty()) << index.CheckValid();
  const BatcherStats bstats = batcher.Stats();
  EXPECT_EQ(bstats.flushed_updates, updates.size());
  EXPECT_EQ(bstats.drain_errors, 0u);
}

// Growth through the full stack: batches referencing brand-new vertex ids
// grow the store, the composite snapshot, and the index's tables.
TEST(WalkIndexServiceTest, GrowsThroughBrandNewVertices) {
  const TestGraph g = MakeGraph(6);
  util::ThreadPool pool(2);
  auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
  WalkIndexService index(*service, SmallIndexOptions(), &pool);

  const VertexId fresh = g.num_vertices + 37;
  graph::UpdateList batch;
  batch.push_back({graph::Update::Kind::kInsert, 0, fresh, 1e9});
  batch.push_back({graph::Update::Kind::kInsert, fresh, 1, 1.0});
  index.ApplyBatch(batch);
  {
    const auto snap = service->Acquire();
    ASSERT_GE(snap.store().NumVertices(), fresh + 1);
  }
  EXPECT_GE(index.VisitCounts().size(), static_cast<std::size_t>(fresh + 1));
  ASSERT_TRUE(index.CheckValid().empty()) << index.CheckValid();
}

// ---------------------------------------------------------- persistence --

// Crash recovery serves the identical corpus: checkpoint mid-stream, keep
// updating (WAL only), "crash", recover — the corpus checkpoint restores
// up to its fence and the replay hook re-runs the post-fence repairs
// against the store states the batches produced.
TEST(WalkIndexPersistenceTest, RecoveredIndexServesIdenticalCorpus) {
  const std::string dir = FreshDir("identical");
  const TestGraph g = MakeGraph(7);
  util::ThreadPool pool(4);
  util::Rng rng(23);

  std::vector<std::vector<VertexId>> survivor_walks;
  std::vector<uint64_t> survivor_counts;
  uint64_t survivor_epoch = 0;
  {
    auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
    WalkIndexService index(*service, SmallIndexOptions(), &pool);
    ASSERT_TRUE(index.AttachWal(dir).ok);
    for (int round = 0; round < 3; ++round) {
      index.ApplyBatch(RandomBatch(rng, g.num_vertices, 50));
    }
    ASSERT_TRUE(index.Checkpoint().ok);
    // Post-checkpoint updates live only in the WAL; their repairs must be
    // re-run by recovery.
    for (int round = 0; round < 3; ++round) {
      index.ApplyBatch(RandomBatch(rng, g.num_vertices, 50));
    }
    for (uint64_t w = 0; w < index.NumWalks(); ++w) {
      survivor_walks.push_back(index.corpus().Walk(w));
    }
    survivor_counts = index.VisitCounts();
    survivor_epoch = index.corpus().repair_epoch();
    // No Checkpoint here: the destructor tears down mid-WAL — the crash.
  }

  WalkIndexRecoveryReport report;
  RecoveredWalkIndexService recovered = RecoverWalkIndexService(
      dir, SmallIndexOptions(), {}, /*num_vertices=*/0, &pool, &pool, {},
      &report);
  ASSERT_TRUE(recovered);
  ASSERT_TRUE(report.service.ok);
  EXPECT_TRUE(report.corpus_restored);
  EXPECT_EQ(report.corpus_batches_replayed, 3u);

  ASSERT_EQ(recovered.index->NumWalks(), survivor_walks.size());
  for (uint64_t w = 0; w < survivor_walks.size(); ++w) {
    ASSERT_EQ(recovered.index->corpus().Walk(w), survivor_walks[w])
        << "walk " << w;
  }
  EXPECT_EQ(recovered.index->VisitCounts(), survivor_counts);
  EXPECT_EQ(recovered.index->corpus().repair_epoch(), survivor_epoch);
  ASSERT_TRUE(recovered.index->CheckValid().empty())
      << recovered.index->CheckValid();

  // The recovered pair keeps working: more updates, another checkpoint.
  recovered.index->ApplyBatch(RandomBatch(rng, g.num_vertices, 50));
  EXPECT_TRUE(recovered.index->Checkpoint().ok);
  std::filesystem::remove_all(dir);
}

// A deleted/corrupt corpus checkpoint degrades to regeneration — recovery
// still succeeds, reports corpus_restored = false, and later checkpoints
// re-establish the corpus file.
TEST(WalkIndexPersistenceTest, MissingCorpusCheckpointFallsBackToRegenerate) {
  const std::string dir = FreshDir("fallback");
  const TestGraph g = MakeGraph(8);
  util::ThreadPool pool(2);
  util::Rng rng(29);
  {
    auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
    WalkIndexService index(*service, SmallIndexOptions(), &pool);
    ASSERT_TRUE(index.AttachWal(dir).ok);
    index.ApplyBatch(RandomBatch(rng, g.num_vertices, 50));
    ASSERT_TRUE(index.Checkpoint().ok);
  }
  std::filesystem::remove(dir + "/" + kCorpusCheckpointFile);

  WalkIndexRecoveryReport report;
  RecoveredWalkIndexService recovered = RecoverWalkIndexService(
      dir, SmallIndexOptions(), {}, /*num_vertices=*/0, &pool, &pool, {},
      &report);
  ASSERT_TRUE(recovered);
  EXPECT_FALSE(report.corpus_restored);
  EXPECT_EQ(report.corpus_batches_replayed, 0u);
  EXPECT_GT(recovered.index->NumWalks(), 0u);
  ASSERT_TRUE(recovered.index->CheckValid().empty())
      << recovered.index->CheckValid();

  // The regenerated index checkpoints into the same dir; a second recovery
  // then restores instead of regenerating.
  ASSERT_TRUE(recovered.index->Checkpoint().ok);
  WalkIndexRecoveryReport second;
  RecoveredWalkIndexService again = RecoverWalkIndexService(
      dir, SmallIndexOptions(), {}, /*num_vertices=*/0, &pool, &pool, {},
      &second);
  ASSERT_TRUE(again);
  EXPECT_TRUE(second.corpus_restored);
  std::filesystem::remove_all(dir);
}

// AttachWal's checkpoint covers a pre-mount update history: recovery right
// after AttachWal (no WAL suffix) restores with zero replayed repairs.
TEST(WalkIndexPersistenceTest, AttachWalFencesCleanly) {
  const std::string dir = FreshDir("attach");
  const TestGraph g = MakeGraph(9);
  util::ThreadPool pool(2);
  util::Rng rng(31);
  std::vector<std::vector<VertexId>> survivor_walks;
  {
    auto service = MakeWalkService(g.edges, g.num_vertices, {}, &pool, &pool);
    WalkIndexService index(*service, SmallIndexOptions(), &pool);
    index.ApplyBatch(RandomBatch(rng, g.num_vertices, 50));  // pre-durability
    ASSERT_TRUE(index.AttachWal(dir).ok);
    for (uint64_t w = 0; w < index.NumWalks(); ++w) {
      survivor_walks.push_back(index.corpus().Walk(w));
    }
  }
  WalkIndexRecoveryReport report;
  RecoveredWalkIndexService recovered = RecoverWalkIndexService(
      dir, SmallIndexOptions(), {}, /*num_vertices=*/0, &pool, &pool, {},
      &report);
  ASSERT_TRUE(recovered);
  EXPECT_TRUE(report.corpus_restored);
  EXPECT_EQ(report.corpus_batches_replayed, 0u);
  ASSERT_EQ(recovered.index->NumWalks(), survivor_walks.size());
  for (uint64_t w = 0; w < survivor_walks.size(); ++w) {
    ASSERT_EQ(recovered.index->corpus().Walk(w), survivor_walks[w]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bingo::walk
