// Differential fuzzing for the sharded service (and its batcher front-end):
// seeded random streams of interleaved inserts / deletes / walk queries
// replayed against ShardedWalkService at shard counts {1, 2, 8} and against
// one plain BingoStore. At every flush point the BatchResult accounting
// must be identical, and every walk query must be bit-identical to the
// unsharded store — the determinism contract of src/walk/store.h extended
// through the service, snapshot, and batcher layers.
//
// Profile: each shard count replays BINGO_FUZZ_SEEDS seeded interleavings
// (default 17, so the default suite covers 51; the `fuzz`-labeled ctest
// target raises it for the nightly run — see CMakeLists.txt).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "src/core/bingo_store.h"
#include "src/core/snapshot.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "src/walk/apps.h"
#include "src/walk/batcher.h"
#include "src/walk/partitioned.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {
namespace {

using core::BingoStore;
using graph::VertexId;

int FuzzSeeds() {
  const char* env = std::getenv("BINGO_FUZZ_SEEDS");
  const int seeds = env == nullptr ? 0 : std::atoi(env);
  return seeds > 0 ? seeds : 17;
}

struct FuzzGraph {
  VertexId num_vertices = 0;
  graph::WeightedEdgeList edges;
};

FuzzGraph MakeGraph(uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  // Vary the shape per seed: 64..256 vertices, avg degree ~4..8.
  const int scale = 6 + static_cast<int>(rng.NextBounded(3));
  const VertexId n = VertexId{1} << scale;
  auto pairs = graph::GenerateRmat(scale, n * (4 + rng.NextBounded(5)), rng);
  if (rng.NextBool(0.5)) {
    graph::MakeUndirected(pairs);
  }
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
    if (rng.NextBool(1.0 / 3.0)) {
      // Some deletes hit live edges, some miss (skipped_deletes coverage).
      updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
    } else {
      updates.push_back(
          {graph::Update::Kind::kInsert, src, dst, 1.0 + rng.NextUnit() * 7.0});
    }
  }
  return updates;
}

// One walk query on both sides; paths must match bit for bit.
void ExpectIdenticalWalks(const ShardedWalkService& service,
                          const BingoStore& reference, uint64_t seed,
                          int round) {
  WalkConfig cfg;
  cfg.num_walkers = 64;
  cfg.walk_length = 12;
  cfg.seed = seed ^ (static_cast<uint64_t>(round) << 32);
  cfg.record_paths = true;

  const auto snap = service.Acquire();
  ASSERT_TRUE(snap.Consistent());
  const WalkResult sharded = RunDeepWalk(snap, cfg);
  const WalkResult plain = RunDeepWalk(reference, cfg);
  ASSERT_EQ(sharded.total_steps, plain.total_steps)
      << "seed=" << seed << " round=" << round;
  ASSERT_EQ(sharded.paths, plain.paths) << "seed=" << seed << " round=" << round;

  // Second-order walks exercise the snapshot's adjacency surface too.
  if (round % 3 == 0) {
    cfg.num_walkers = 32;
    const WalkResult sharded_n2v = RunNode2vec(snap, cfg, {});
    const WalkResult plain_n2v = RunNode2vec(reference, cfg, {});
    ASSERT_EQ(sharded_n2v.paths, plain_n2v.paths)
        << "node2vec seed=" << seed << " round=" << round;
  }
  ASSERT_TRUE(snap.Consistent());
}

// Walker-transfer superstep driver vs the shared-memory engine on the same
// updated graph state: bit-identical walks (the steppers consume identical
// per-walker streams), plus PartitionedWalkResult accounting invariants —
// migrations bounded by steps (and zero at one shard), supersteps bounded by
// the walk length, finished walkers bounded by the walker count.
void ExpectSuperstepMatchesEngine(const PartitionedBingoStore& part,
                                  const BingoStore& reference, int num_shards,
                                  uint64_t seed, int round) {
  WalkConfig cfg;
  cfg.num_walkers = 64;
  cfg.walk_length = 12;
  cfg.seed = seed ^ (static_cast<uint64_t>(round) << 32) ^ 0x5fbe57e9ULL;
  cfg.record_paths = true;

  const WalkResult engine = RunDeepWalk(reference, cfg);
  const PartitionedWalkResult super =
      RunPartitionedApp(part, cfg, DeepWalkApp{});
  ASSERT_EQ(super.total_steps, engine.total_steps)
      << "seed=" << seed << " round=" << round;
  ASSERT_EQ(super.finished_walkers, engine.finished_walkers);
  ASSERT_EQ(super.path_offsets, engine.path_offsets);
  ASSERT_EQ(super.paths, engine.paths);
  ASSERT_LE(super.finished_walkers, cfg.num_walkers);
  ASSERT_LE(super.walker_migrations, super.total_steps);
  ASSERT_LE(super.supersteps, uint64_t{cfg.walk_length});
  if (num_shards == 1) {
    ASSERT_EQ(super.walker_migrations, 0u);
  }

  // Second-order and terminating steppers ride the same superstep driver.
  if (round % 3 == 0) {
    cfg.num_walkers = 32;
    const WalkResult engine_n2v = RunNode2vec(reference, cfg, {});
    const PartitionedWalkResult super_n2v =
        RunPartitionedApp(part, cfg, Node2vecApp{});
    ASSERT_EQ(super_n2v.paths, engine_n2v.paths)
        << "superstep node2vec seed=" << seed << " round=" << round;

    cfg.record_paths = false;
    const WalkResult engine_ppr = RunPpr(reference, cfg, 1.0 / 20.0);
    const PartitionedWalkResult super_ppr =
        RunPartitionedApp(part, cfg, PprApp{1.0 / 20.0});
    ASSERT_EQ(super_ppr.visit_counts, engine_ppr.visit_counts)
        << "superstep ppr seed=" << seed << " round=" << round;
    ASSERT_EQ(super_ppr.finished_walkers, engine_ppr.finished_walkers);
  }
}

// Replays one seeded interleaving through ShardedWalkService::ApplyBatch.
// With `with_checkpoint`, a WAL is attached mid-stream and the service is
// later "crashed" (destroyed) and Recovered from disk: accounting, walks,
// and the superstep driver must stay differential through the checkpoint,
// canonicalization, and recovery points.
void RunDirectInterleaving(int num_shards, uint64_t seed,
                           bool with_checkpoint = false) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards) +
               " seed=" + std::to_string(seed) +
               (with_checkpoint ? " checkpointed" : ""));
  const FuzzGraph g = MakeGraph(seed);
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, num_shards);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  auto partitioned = std::make_unique<PartitionedBingoStore>(
      g.edges, g.num_vertices, num_shards);
  // getpid: the short and long (ctest -L fuzz) profiles of this binary run
  // concurrently and must not share durability directories.
  const std::string wal_dir = ::testing::TempDir() + "/bingo_fuzz_wal_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(num_shards) + "_" +
                              std::to_string(seed);

  util::Rng rng(seed);
  const int rounds = 5 + static_cast<int>(rng.NextBounded(4));
  const int attach_round = rounds / 3;
  const int crash_round = (2 * rounds) / 3 + 1;
  for (int round = 0; round < rounds; ++round) {
    if (with_checkpoint && round == attach_round) {
      std::filesystem::remove_all(wal_dir);
      ASSERT_TRUE(service->AttachWal(wal_dir).ok);
      // Attaching canonicalizes the service's stores (that is what makes
      // recovery bit-identical); mirror the rebuild on both references.
      const auto canonical = core::CanonicalEdgeList(reference->Graph());
      reference = std::make_unique<BingoStore>(
          graph::DynamicGraph::FromEdges(g.num_vertices, canonical));
      partitioned = std::make_unique<PartitionedBingoStore>(
          canonical, g.num_vertices, num_shards);
    }
    if (with_checkpoint && round == crash_round) {
      if (rng.NextBool(0.5)) {
        const walk::CheckpointResult ckpt = service->Checkpoint();
        ASSERT_TRUE(ckpt.ok);
        if (ckpt.compacted) {
          const auto canonical = core::CanonicalEdgeList(reference->Graph());
          reference = std::make_unique<BingoStore>(
              graph::DynamicGraph::FromEdges(g.num_vertices, canonical));
          partitioned = std::make_unique<PartitionedBingoStore>(
              canonical, g.num_vertices, num_shards);
        }
      }
      service.reset();  // crash: journaled but un-checkpointed rounds too
      service = RecoverShardedWalkService(wal_dir);
      ASSERT_NE(service, nullptr) << "recovery failed at round " << round;
      ExpectIdenticalWalks(*service, *reference, seed, 1000 + round);
    }
    const auto batch =
        RandomBatch(rng, g.num_vertices, 50 + rng.NextBounded(150));
    const core::BatchResult sharded_result = service->ApplyBatch(batch);
    const core::BatchResult plain_result = reference->ApplyBatch(batch);
    ASSERT_EQ(sharded_result, plain_result)
        << "accounting diverged at round " << round;
    ASSERT_EQ(partitioned->ApplyBatch(batch), plain_result)
        << "partitioned accounting diverged at round " << round;
    ASSERT_EQ(sharded_result.inserted + sharded_result.deleted +
                  sharded_result.skipped_deletes,
              batch.size());
    ExpectIdenticalWalks(*service, *reference, seed, round);
    ExpectSuperstepMatchesEngine(*partitioned, *reference, num_shards, seed,
                                 round);
  }
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  EXPECT_TRUE(reference->CheckInvariants().empty());

  if (!with_checkpoint) {
    // Per-shard epochs: each batch bumps only the shards it touched. (The
    // checkpoint variant skips this: attach/compaction publish extra epochs
    // and recovery resets them.)
    const auto stats = service->Stats();
    EXPECT_LE(stats.epoch, static_cast<uint64_t>(rounds) *
                               static_cast<uint64_t>(num_shards));
    EXPECT_GE(stats.epoch, static_cast<uint64_t>(rounds));
  } else {
    std::filesystem::remove_all(wal_dir);
  }
}

// Same differential check, but updates flow one edge at a time through the
// UpdateBatcher; every Flush() is a flush point.
void RunBatcherInterleaving(int num_shards, uint64_t seed) {
  SCOPED_TRACE("batcher shards=" + std::to_string(num_shards) +
               " seed=" + std::to_string(seed));
  const FuzzGraph g = MakeGraph(seed);
  const auto service =
      MakeShardedWalkService(g.edges, g.num_vertices, num_shards);
  BingoStore reference(graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));

  // Manual mode: flush points are exactly our Flush() calls, so the
  // coalesced per-shard batches are deterministic.
  BatcherOptions options;
  options.auto_flush = false;
  UpdateBatcher batcher(*service, options);

  util::Rng rng(seed ^ 0xb10c0b10c0ULL);
  core::BatchResult expected_total;
  const int rounds = 4 + static_cast<int>(rng.NextBounded(3));
  for (int round = 0; round < rounds; ++round) {
    const auto batch =
        RandomBatch(rng, g.num_vertices, 40 + rng.NextBounded(120));
    for (const graph::Update& u : batch) {
      batcher.Submit(u);
    }
    batcher.Flush();
    expected_total += reference.ApplyBatch(batch);

    const BatcherStats stats = batcher.Stats();
    ASSERT_EQ(stats.queue_depth, 0u);
    ASSERT_TRUE(stats.applied == expected_total)
        << "batcher accounting diverged at round " << round;
    ExpectIdenticalWalks(*service, reference, seed, round);
  }
  const BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, stats.flushed_updates);
  // Each round flushes >= 1 shard and <= every shard.
  EXPECT_GE(stats.manual_flushes, static_cast<uint64_t>(rounds));
  EXPECT_LE(stats.manual_flushes,
            static_cast<uint64_t>(rounds) * static_cast<uint64_t>(num_shards));
  EXPECT_GT(stats.CoalesceRatio(), 1.0);  // whole rounds coalesced per shard
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

TEST(ShardedFuzzTest, DifferentialOneShard) {
  for (int seed = 0; seed < FuzzSeeds(); ++seed) {
    RunDirectInterleaving(1, static_cast<uint64_t>(seed));
  }
}

TEST(ShardedFuzzTest, DifferentialTwoShards) {
  for (int seed = 0; seed < FuzzSeeds(); ++seed) {
    RunDirectInterleaving(2, 1000 + static_cast<uint64_t>(seed));
  }
}

TEST(ShardedFuzzTest, DifferentialEightShards) {
  for (int seed = 0; seed < FuzzSeeds(); ++seed) {
    RunDirectInterleaving(8, 2000 + static_cast<uint64_t>(seed));
  }
}

TEST(ShardedFuzzTest, DifferentialWithCheckpointRecovery) {
  const int seeds = std::max(1, FuzzSeeds() / 3);
  for (const int num_shards : {1, 2, 8}) {
    for (int seed = 0; seed < seeds; ++seed) {
      RunDirectInterleaving(num_shards, 4000 + static_cast<uint64_t>(seed),
                            /*with_checkpoint=*/true);
    }
  }
}

TEST(ShardedFuzzTest, DifferentialThroughBatcher) {
  const int seeds = std::max(1, FuzzSeeds() / 3);
  for (const int num_shards : {1, 2, 8}) {
    for (int seed = 0; seed < seeds; ++seed) {
      RunBatcherInterleaving(num_shards, 3000 + static_cast<uint64_t>(seed));
    }
  }
}

}  // namespace
}  // namespace bingo::walk
