// WalkService: snapshot isolation, epoch publication, and concurrent
// queries racing batched updates (the CI sanitizer job runs this under
// ASan/UBSan; the stress path is the data-race canary).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/service.h"

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

graph::UpdateList MixedUpdates(uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  graph::UpdateList updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(kNumVertices));
    const auto dst = static_cast<VertexId>(rng.NextBounded(kNumVertices));
    if (i % 3 == 0) {
      updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
    } else {
      updates.push_back(
          {graph::Update::Kind::kInsert, src, dst, 1.0 + rng.NextUnit() * 4.0});
    }
  }
  return updates;
}

// ------------------------------------------------------ basic behavior --

TEST(WalkServiceTest, QueriesMatchPlainStore) {
  const auto edges = TestGraph(61);
  const auto service = MakeWalkService(edges, kNumVertices);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));

  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  const auto from_service = service->DeepWalk(cfg);
  const auto from_store = RunDeepWalk(reference, cfg);
  EXPECT_EQ(from_service.paths, from_store.paths);
  EXPECT_EQ(from_service.total_steps, from_store.total_steps);
  EXPECT_EQ(service->Stats().queries_served, 1u);
}

TEST(WalkServiceTest, ApplyBatchAdvancesEpochAndBothReplicas) {
  const auto edges = TestGraph(62);
  const auto service = MakeWalkService(edges, kNumVertices);
  EXPECT_EQ(service->Epoch(), 0u);

  const auto updates = MixedUpdates(11, 300);
  const auto result = service->ApplyBatch(updates);
  EXPECT_EQ(result.inserted + result.deleted + result.skipped_deletes,
            updates.size());
  EXPECT_EQ(service->Epoch(), 1u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();

  // The service's post-update state matches a store that applied the same
  // batch directly (both replicas replayed the identical stream).
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  reference.ApplyBatch(updates);
  WalkConfig cfg;
  cfg.walk_length = 15;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);

  // Two consecutive epochs: the second batch must land on top of the first
  // on *both* replicas.
  const auto more = MixedUpdates(12, 300);
  service->ApplyBatch(more);
  reference.ApplyBatch(more);
  EXPECT_EQ(service->Epoch(), 2u);
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// ------------------------------------------------- snapshot isolation --

// Polls `done` for up to 10 s (ample under a sanitizer).
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return done();
}

// A pinned snapshot does not hold back the write that supersedes it: that
// write applies the back replica, publishes and returns. The pinned
// replica is then the back one, so the NEXT write, which must first replay
// the batch there, waits until the snapshot is released.
TEST(WalkServiceTest, SnapshotSurvivesConcurrentUpdateUnchanged) {
  const auto edges = TestGraph(63);
  const auto service = MakeWalkService(edges, kNumVertices);

  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.record_paths = true;

  auto snap = service->Acquire();
  EXPECT_EQ(snap.epoch(), 0u);
  const auto before = RunDeepWalk(snap.store(), cfg);

  std::atomic<bool> first_done{false};
  std::thread first([&] {
    service->ApplyBatch(MixedUpdates(21, 400));
    first_done.store(true, std::memory_order_release);
  });
  if (!WaitUntil([&] { return first_done.load(std::memory_order_acquire); })) {
    { auto release = std::move(snap); }
    first.join();
    FAIL() << "ApplyBatch waited for a snapshot of the epoch it replaced";
  }
  first.join();

  // New queries see the new epoch; our snapshot still serves the old one,
  // bit-identically, and stays consistent.
  EXPECT_EQ(service->Epoch(), 1u);
  EXPECT_EQ(service->Acquire().epoch(), 1u);
  EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
  EXPECT_TRUE(snap.Consistent());

  // The second write spins on our pinned replica's reader count.
  std::atomic<bool> second_done{false};
  std::thread second([&] {
    service->ApplyBatch(MixedUpdates(22, 400));
    second_done.store(true, std::memory_order_release);
  });
  WaitUntil([&] {
    return service->Stats().drain_spins > 0 ||
           second_done.load(std::memory_order_acquire);
  });
  EXPECT_GT(service->Stats().drain_spins, 0u);
  EXPECT_FALSE(second_done.load(std::memory_order_acquire));
  EXPECT_EQ(service->Epoch(), 1u);
  EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
  EXPECT_TRUE(snap.Consistent());

  { auto release = std::move(snap); }  // drop the pin; the writer may finish
  second.join();
  EXPECT_TRUE(second_done.load(std::memory_order_acquire));
  EXPECT_EQ(service->Epoch(), 2u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

void ExpectSameMemory(const core::StoreMemoryStats& got,
                      const core::StoreMemoryStats& want) {
  EXPECT_EQ(got.graph_bytes, want.graph_bytes);
  EXPECT_EQ(got.sampler_fixed_bytes, want.sampler_fixed_bytes);
  EXPECT_EQ(got.sampler_dynamic_bytes, want.sampler_dynamic_bytes);
}

// ApplyBatch returns before the back replica has the batch. MemoryStats
// reports both replicas as they stand; CheckInvariants replays the batch
// first, after which both replicas equal a store that applied it.
TEST(WalkServiceTest, DeferredReplayIsCaughtUpByCheckInvariants) {
  const auto edges = TestGraph(65);
  const auto service = MakeWalkService(edges, kNumVertices);
  const BingoStore before(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  BingoStore after(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  const auto updates = MixedUpdates(41, 300);
  after.ApplyBatch(updates);
  ASSERT_NE(before.NumEdges(), after.NumEdges());

  service->ApplyBatch(updates);
  core::StoreMemoryStats expected = before.MemoryStats();
  expected += after.MemoryStats();
  ExpectSameMemory(service->MemoryStats(), expected);

  // Without the replay the replicas' edge counts would disagree.
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  expected = after.MemoryStats();
  expected += after.MemoryStats();
  ExpectSameMemory(service->MemoryStats(), expected);

  // Walk each replica: an empty batch publishes the other one.
  WalkConfig cfg;
  cfg.walk_length = 15;
  cfg.record_paths = true;
  const auto want = RunDeepWalk(after, cfg).paths;
  EXPECT_EQ(service->DeepWalk(cfg).paths, want);
  service->ApplyBatch({});
  EXPECT_EQ(service->Epoch(), 2u);
  EXPECT_EQ(service->DeepWalk(cfg).paths, want);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// ------------------------------------------------------- concurrency --

TEST(WalkServiceTest, ConcurrentQueriesDuringUpdatesStayConsistent) {
  const auto edges = TestGraph(64);
  util::ThreadPool pool(2);
  const auto service = MakeWalkService(edges, kNumVertices, {}, &pool, nullptr);

  const auto updates = MixedUpdates(31, 4000);
  ServiceStressOptions options;
  options.query_threads = 4;
  options.batch_size = 500;
  options.walkers_per_query = 128;
  options.walk_length = 8;
  const auto report = RunWalkServiceStress(*service, updates, options);

  EXPECT_EQ(report.inconsistent_snapshots, 0u);
  EXPECT_EQ(report.batches, 8u);
  EXPECT_GE(report.queries, static_cast<uint64_t>(options.query_threads));
  EXPECT_GT(report.walk_steps, 0u);
  EXPECT_LE(report.max_epoch_observed, 8u);
  EXPECT_EQ(service->Epoch(), 8u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();

  // Deterministic end state: same as replaying the stream on a plain store
  // with the same batch boundaries (a batch reorders insert-before-delete
  // per vertex, so boundaries are semantically significant).
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  for (std::size_t begin = 0; begin < updates.size();
       begin += options.batch_size) {
    const std::size_t end = std::min<std::size_t>(updates.size(),
                                                  begin + options.batch_size);
    reference.ApplyBatch(
        graph::UpdateList(updates.begin() + begin, updates.begin() + end));
  }
  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);

  const auto stats = service->Stats();
  EXPECT_EQ(stats.batches_applied, 8u);
  EXPECT_EQ(stats.updates_applied, updates.size());
  EXPECT_GE(stats.queries_served, report.queries);
}

}  // namespace
}  // namespace bingo::walk
