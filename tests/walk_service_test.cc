// WalkService: snapshot isolation, epoch publication, reclamation of
// superseded versions, and concurrent queries racing batched updates (the
// CI sanitizer jobs run this under ASan/UBSan and TSan; the stress path is
// the data-race canary).

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

TEST(WalkServiceTest, ApplyBatchAdvancesEpoch) {
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
  // batch directly.
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  reference.ApplyBatch(updates);
  WalkConfig cfg;
  cfg.walk_length = 15;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);

  // Two consecutive epochs: the second batch lands on top of the first.
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

// A pinned snapshot holds back no write: each batch builds a new version,
// publishes it and returns, while the snapshot keeps walking the version it
// pinned, bit for bit.
TEST(WalkServiceTest, SnapshotSurvivesConcurrentUpdateUnchanged) {
  const auto edges = TestGraph(63);
  const auto service = MakeWalkService(edges, kNumVertices);

  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.record_paths = true;

  auto snap = service->Acquire();
  EXPECT_EQ(snap.epoch(), 0u);
  const auto before = RunDeepWalk(snap.store(), cfg);

  for (uint64_t round = 1; round <= 2; ++round) {
    std::atomic<bool> done{false};
    std::thread writer([&] {
      service->ApplyBatch(MixedUpdates(20 + round, 400));
      done.store(true, std::memory_order_release);
    });
    const bool returned =
        WaitUntil([&] { return done.load(std::memory_order_acquire); });
    if (!returned) {
      { auto release = std::move(snap); }
      writer.join();
      FAIL() << "ApplyBatch " << round << " waited for a pinned snapshot";
    }
    writer.join();

    // New queries see the new epoch; our snapshot still serves the old one,
    // bit-identically, and stays consistent.
    EXPECT_EQ(service->Epoch(), round);
    EXPECT_EQ(service->Acquire().epoch(), round);
    EXPECT_EQ(snap.epoch(), 0u);
    EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
    EXPECT_TRUE(snap.Consistent());
  }
  EXPECT_EQ(service->Stats().drain_spins, 0u);
  EXPECT_GT(service->MemoryStats().retired_bytes, 0u);

  { auto release = std::move(snap); }
  EXPECT_EQ(service->MemoryStats().retired_bytes, 0u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// Once every snapshot is released the service holds exactly one store:
// its memory equals a bare store's that applied the same batches, with
// nothing retired.
TEST(WalkServiceTest, ReleasedSnapshotsLeaveOneStore) {
  const auto edges = TestGraph(65);
  const auto service = MakeWalkService(edges, kNumVertices);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  {
    const auto pinned = service->Acquire();
    for (uint64_t seed = 41; seed < 44; ++seed) {
      const auto updates = MixedUpdates(seed, 300);
      service->ApplyBatch(updates);
      reference.ApplyBatch(updates);
    }
    EXPECT_GT(service->MemoryStats().retired_bytes, 0u);
  }
  const core::StoreMemoryStats got = service->MemoryStats();
  const core::StoreMemoryStats want = reference.MemoryStats();
  EXPECT_EQ(got.graph_bytes, want.graph_bytes);
  EXPECT_EQ(got.sampler_fixed_bytes, want.sampler_fixed_bytes);
  EXPECT_EQ(got.sampler_dynamic_bytes, want.sampler_dynamic_bytes);
  EXPECT_EQ(got.retired_bytes, 0u);
  EXPECT_EQ(want.retired_bytes, 0u);

  WalkConfig cfg;
  cfg.walk_length = 15;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// A snapshot pinned across 1,000 single-edge batches holds back only the
// versions those batches superseded — the touched vertices' copies and the
// table pages holding them — never a second copy of the store.
TEST(WalkServiceTest, PinnedSnapshotRetainsOnlyTouchedVersions) {
  constexpr VertexId kVertices = 4096;
  util::Rng rng(66);
  auto pairs = graph::GenerateRmat(12, 30000, rng);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(kVertices, pairs);
  const auto edges =
      graph::ToWeightedEdges(csr, graph::GenerateBiases(csr, {}, rng));
  const auto service = MakeWalkService(edges, kVertices);
  BingoStore reference(graph::DynamicGraph::FromEdges(kVertices, edges));

  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  auto snap = service->Acquire();
  const auto before = RunDeepWalk(snap.store(), cfg);

  std::size_t bound = 0;
  for (int i = 0; i < 1000; ++i) {
    const graph::WeightedEdge& e = edges[rng.NextBounded(edges.size())];
    const graph::Update u =
        i % 2 == 0
            ? graph::Update{graph::Update::Kind::kInsert, e.src, e.dst, 2.0}
            : graph::Update{graph::Update::Kind::kDelete, e.src, e.dst, 0.0};
    bound += reference.VersionBytes(u.src);
    reference.ApplyBatch({u});
    service->ApplyBatch({u});
  }
  const std::size_t retired = service->MemoryStats().retired_bytes;
  EXPECT_GT(retired, 0u);
  EXPECT_LE(retired, bound);
  EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
  EXPECT_TRUE(snap.Consistent());

  { auto release = std::move(snap); }
  EXPECT_EQ(service->MemoryStats().retired_bytes, 0u);
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
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
