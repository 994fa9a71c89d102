// Concurrency stress for the batcher + sharded service: many submitter
// threads race single-edge Submit()s against walk queries across shards,
// with Snapshot::Consistent() asserted after every query. The CI TSan job
// runs this binary — it is the data-race canary for the per-shard epoch
// protocol and the batcher's drain machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "src/walk/apps.h"
#include "src/walk/batcher.h"
#include "src/walk/sharded_service.h"
#include "src/walk/stress.h"

namespace bingo::walk {
namespace {

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

graph::Update RandomUpdate(util::Rng& rng) {
  const auto src = static_cast<VertexId>(rng.NextBounded(kNumVertices));
  const auto dst = static_cast<VertexId>(rng.NextBounded(kNumVertices));
  if (rng.NextBool(1.0 / 3.0)) {
    return {graph::Update::Kind::kDelete, src, dst, 0.0};
  }
  return {graph::Update::Kind::kInsert, src, dst, 1.0 + rng.NextUnit() * 4.0};
}

TEST(ShardedStressTest, SubmittersRaceQueriesAcrossShards) {
  constexpr int kShards = 4;
  constexpr int kSubmitters = 4;
  constexpr int kQueryThreads = 3;
  constexpr int kUpdatesPerSubmitter = 2500;

  const auto edges = TestGraph(71);
  const auto service = MakeShardedWalkService(edges, kNumVertices, kShards);

  UpdateBatcher batcher(*service);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> queries{0};

  std::vector<std::thread> query_threads;
  query_threads.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    query_threads.emplace_back([&, t] {
      uint64_t iteration = 0;
      while (!stop.load(std::memory_order_acquire) || iteration == 0) {
        WalkConfig cfg;
        cfg.num_walkers = 64;
        cfg.walk_length = 8;
        cfg.seed = 100 + static_cast<uint64_t>(t) * 7919 + iteration;
        const auto snap = service->Acquire();
        RunDeepWalk(snap, cfg, nullptr);
        if (!snap.Consistent()) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        ++iteration;
      }
    });
  }

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kUpdatesPerSubmitter; ++i) {
        batcher.Submit(RandomUpdate(rng));
      }
    });
  }
  for (std::thread& s : submitters) {
    s.join();
  }

  // One direct multi-shard batch racing the batcher's drains: the per-shard
  // writer locks serialize them, and queries must stay consistent through
  // both paths.
  util::Rng rng(4242);
  graph::UpdateList direct;
  for (int i = 0; i < 500; ++i) {
    direct.push_back(RandomUpdate(rng));
  }
  const core::BatchResult direct_result = service->ApplyBatch(direct);
  EXPECT_EQ(direct_result.inserted + direct_result.deleted +
                direct_result.skipped_deletes,
            direct.size());

  batcher.Flush();
  stop.store(true, std::memory_order_release);
  for (std::thread& q : query_threads) {
    q.join();
  }

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GE(queries.load(), static_cast<uint64_t>(kQueryThreads));

  const BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSubmitters) * kUpdatesPerSubmitter);
  EXPECT_EQ(stats.flushed_updates, stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.applied.inserted + stats.applied.deleted +
                stats.applied.skipped_deletes,
            stats.submitted);
  EXPECT_GT(stats.batches, 0u);

  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  const auto service_stats = service->Stats();
  EXPECT_EQ(service_stats.updates_applied, stats.submitted + direct.size());
}

TEST(ShardedStressTest, PoolPostErrorsSurfaceThroughBatcherStats) {
  // The executor's Post exception contract (thread_pool.h): a throwing
  // fire-and-forget task is swallowed and counted, never fatal. The
  // batcher surfaces its writer pool's counter so a deployment can alarm
  // on it — assert the plumbing end to end with a caller-provided pool.
  const auto edges = TestGraph(73);
  const auto service = MakeShardedWalkService(edges, kNumVertices, 4);
  util::ThreadPool writer_pool(2);
  BatcherOptions options;
  options.auto_flush = false;
  {
    UpdateBatcher batcher(*service, options, &writer_pool);
    writer_pool.Post([] { throw std::runtime_error("writer task boom"); });
    util::Rng rng(5);
    for (int i = 0; i < 100; ++i) {
      batcher.Submit(RandomUpdate(rng));
    }
    batcher.Flush();  // the pool survived the throw: drains still complete
    for (int spin = 0; spin < 10000 && writer_pool.PostErrors() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const BatcherStats stats = batcher.Stats();
    EXPECT_EQ(stats.flushed_updates, 100u);
    EXPECT_EQ(stats.drain_errors, 0u);
    EXPECT_EQ(stats.dropped_updates, 0u);
    EXPECT_EQ(stats.pool_post_errors, 1u);
  }
  EXPECT_TRUE(service->CheckInvariants().empty());
}

// A trickle is applied by the drains its own submits start: no Flush(), no
// timer, and no size threshold to reach.
TEST(ShardedStressTest, SubmitDrainsTrickle) {
  const auto edges = TestGraph(73);
  const auto service = MakeShardedWalkService(edges, kNumVertices, 4);
  UpdateBatcher batcher(*service);

  util::Rng rng(5150);
  constexpr uint64_t kTrickle = 10;
  for (uint64_t i = 0; i < kTrickle; ++i) {
    batcher.Submit(RandomUpdate(rng));
  }
  // Generous for a loaded sanitizer runner; a healthy drain takes
  // microseconds.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (batcher.Stats().flushed_updates < kTrickle &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.flushed_updates, kTrickle);
  EXPECT_GE(stats.submit_drains, 1u);
  EXPECT_EQ(stats.manual_flushes, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(service->Stats().updates_applied, kTrickle);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// auto_flush off: Submit only queues, so nothing reaches the service
// before Flush(), and Flush() applies all of it.
TEST(ShardedStressTest, ManualModeAppliesNothingBeforeFlush) {
  const auto edges = TestGraph(74);
  const auto service = MakeShardedWalkService(edges, kNumVertices, 4);
  BatcherOptions options;
  options.auto_flush = false;
  UpdateBatcher batcher(*service, options);

  util::Rng rng(6);
  constexpr uint64_t kUpdates = 200;
  for (uint64_t i = 0; i < kUpdates; ++i) {
    batcher.Submit(RandomUpdate(rng));
  }
  // A drain started by Submit would have had ample time to publish.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.flushed_updates, 0u);
  EXPECT_EQ(stats.submit_drains, 0u);
  EXPECT_EQ(stats.queue_depth, kUpdates);
  EXPECT_EQ(service->Epoch(), 0u);

  batcher.Flush();
  stats = batcher.Stats();
  EXPECT_EQ(stats.flushed_updates, kUpdates);
  EXPECT_EQ(stats.submit_drains, 0u);
  EXPECT_GE(stats.manual_flushes, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(service->Stats().updates_applied, kUpdates);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// The stress driver in batcher mode: every window's updates are applied
// when the flush returns, and snapshots stay consistent throughout.
TEST(ShardedStressTest, StressHarnessBatcherMode) {
  const auto edges = TestGraph(72);
  const auto service = MakeShardedWalkService(edges, kNumVertices, 4);

  util::Rng rng(9);
  graph::UpdateList updates;
  for (int i = 0; i < 3000; ++i) {
    updates.push_back(RandomUpdate(rng));
  }

  StressOptions options;
  options.query_threads = 3;
  options.batch_size = 500;
  options.walkers_per_query = 128;
  options.walk_length = 8;
  options.use_batcher = true;
  const auto report = RunServiceStress(*service, updates, options);

  EXPECT_EQ(report.inconsistent_snapshots, 0u);
  EXPECT_EQ(report.batches, 6u);
  EXPECT_GT(report.walk_steps, 0u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  EXPECT_EQ(service->Stats().updates_applied, updates.size());
}

// Logical-clock ticks on a decaying pipeline while query threads hold
// composite snapshots, with direct multi-shard batches. Each tick is
// broadcast to every shard and re-buckets all of its biases; snapshots stay
// consistent, and the end state walks like one bare store that applied the
// same batches.
TEST(ShardedStressTest, DecayTicksUnderLiveQueriesStayConsistent) {
  constexpr int kShards = 4;
  constexpr uint64_t kWindows = 8;
  const auto edges = TestGraph(75);
  core::BingoConfig config;
  config.pipeline.decay = 0.9;
  const auto service =
      MakeShardedWalkService(edges, kNumVertices, kShards, config);

  StressOptions options;
  options.query_threads = 4;
  options.batch_size = 500;
  options.walkers_per_query = 128;
  options.walk_length = 8;
  // Every odd window opens with a tick to the next epoch.
  util::Rng rng(10);
  graph::UpdateList updates;
  uint32_t epoch = 0;
  for (uint64_t w = 0; w < kWindows; ++w) {
    for (uint64_t i = 0; i < options.batch_size; ++i) {
      updates.push_back(w % 2 == 1 && i == 0 ? graph::MakeAdvanceTime(++epoch)
                                             : RandomUpdate(rng));
    }
  }
  const auto report = RunServiceStress(*service, updates, options);

  EXPECT_EQ(report.inconsistent_snapshots, 0u);
  EXPECT_EQ(report.batches, kWindows);
  EXPECT_GE(report.queries, static_cast<uint64_t>(options.query_threads));
  EXPECT_LE(report.max_epoch_observed, kWindows * kShards);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();

  core::BingoStore reference(
      graph::DynamicGraph::FromEdges(kNumVertices, edges), config);
  for (std::size_t begin = 0; begin < updates.size();
       begin += options.batch_size) {
    reference.ApplyBatch(graph::UpdateList(
        updates.begin() + begin, updates.begin() + begin + options.batch_size));
  }
  EXPECT_EQ(reference.LogicalEpoch(), epoch);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(service->Shard(s).Query([](const core::BingoStore& store) {
      return store.LogicalEpoch();
    }), epoch);
  }
  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
}

}  // namespace
}  // namespace bingo::walk
