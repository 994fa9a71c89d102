// WalkService: snapshot isolation, epoch publication, reclamation of
// superseded versions, the in-place path for batches no snapshot reads,
// and concurrent queries racing batched updates (the
// CI sanitizer jobs run this under ASan/UBSan and TSan; the stress path,
// with and without decay ticks, is the data-race canary).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/memory_pool.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/service.h"
#include "src/walk/stress.h"

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

// ------------------------------------------------------ in-place path --

// A batch that no snapshot reads is applied in place: 1,000 single-edge
// batches with no snapshot alive copy nothing and leave the pool's
// footprint where it was. The same batches under one held snapshot each
// copy, and the snapshot keeps walking its version bit for bit.
TEST(WalkServiceTest, UnreadVersionAppliesInPlace) {
  constexpr VertexId kVertices = 4096;
  util::Rng rng(67);
  auto pairs = graph::GenerateRmat(12, 30000, rng);
  graph::Canonicalize(pairs);
  const graph::Csr csr = graph::Csr::FromPairs(kVertices, pairs);
  const auto edges =
      graph::ToWeightedEdges(csr, graph::GenerateBiases(csr, {}, rng));
  const auto service = MakeWalkService(edges, kVertices);
  BingoStore reference(graph::DynamicGraph::FromEdges(kVertices, edges));
  const util::MemoryPool* pool =
      service->Query([](const BingoStore& s) { return &s.Pool(); });

  // Forty vertices in turn, each taking one edge and then giving it back.
  const auto apply = [&](int i) {
    const graph::Update u{i % 2 == 0 ? graph::Update::Kind::kInsert
                                     : graph::Update::Kind::kDelete,
                          static_cast<VertexId>((i / 2) % 40) * 7, 3, 2.75};
    service->ApplyBatch({u});
    reference.ApplyBatch({u});
  };
  constexpr int kWarmup = 100;  // every vertex's blocks at their size
  for (int i = 0; i < kWarmup; ++i) {
    apply(i);
  }
  const std::size_t reserved = pool->ReservedBytes();
  for (int i = kWarmup; i < kWarmup + 1000; ++i) {
    apply(i);
  }
  EXPECT_EQ(service->Stats().batches_copied, 0u);
  EXPECT_EQ(pool->ReservedBytes(), reserved);
  EXPECT_EQ(service->MemoryStats().retired_bytes, 0u);

  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);

  auto snap = service->Acquire();
  const auto before = RunDeepWalk(snap.store(), cfg);
  for (int i = 0; i < 1000; ++i) {
    apply(i);
  }
  EXPECT_EQ(service->Stats().batches_copied, 1000u);
  EXPECT_GT(service->MemoryStats().retired_bytes, 0u);
  EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
  EXPECT_TRUE(snap.Consistent());
  { auto release = std::move(snap); }
  EXPECT_EQ(service->MemoryStats().retired_bytes, 0u);
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// A snapshot of epoch e keeps every later batch on the copy path while it
// lives, the one building e + 2 included: the published version then has
// no reader, but an older view is pinned.
TEST(WalkServiceTest, OlderSnapshotKeepsCopyPath) {
  const auto edges = TestGraph(68);
  const auto service = MakeWalkService(edges, kNumVertices);
  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
  const auto apply = [&](uint64_t seed) {
    const auto updates = MixedUpdates(seed, 300);
    service->ApplyBatch(updates);
    reference.ApplyBatch(updates);
  };
  WalkConfig cfg;
  cfg.walk_length = 12;
  cfg.record_paths = true;

  apply(51);
  EXPECT_EQ(service->Stats().batches_copied, 0u);
  auto snap = service->Acquire();
  const uint64_t e = snap.epoch();
  const auto before = RunDeepWalk(snap.store(), cfg);
  apply(52);  // builds e + 1 while the snapshot reads e
  EXPECT_EQ(service->Stats().batches_copied, 1u);
  apply(53);  // builds e + 2: e + 1 is unread, e is still pinned
  EXPECT_EQ(service->Epoch(), e + 2);
  EXPECT_EQ(service->Stats().batches_copied, 2u);
  EXPECT_EQ(before.paths, RunDeepWalk(snap.store(), cfg).paths);
  EXPECT_TRUE(snap.Consistent());

  { auto release = std::move(snap); }
  apply(54);
  EXPECT_EQ(service->Stats().batches_copied, 2u);
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// Readers Acquire in a loop while 2k-update batches apply, in place when no
// snapshot is alive: every snapshot is consistent, holds the edge count of
// a batch boundary, and walks exactly like a bare store that replayed the
// batches up to its epoch.
TEST(WalkServiceTest, AcquireDuringInPlaceApplySeesBatchBoundaries) {
  constexpr int kBatches = 16;
  constexpr std::size_t kBatchSize = 2000;
  const auto edges = TestGraph(69);
  util::ThreadPool pool(2);
  const auto service =
      MakeWalkService(edges, kNumVertices, {}, nullptr, &pool);
  const auto updates = MixedUpdates(71, kBatches * kBatchSize);
  const auto batch = [&](int b) {
    return graph::UpdateList(updates.begin() + b * kBatchSize,
                             updates.begin() + (b + 1) * kBatchSize);
  };

  WalkConfig cfg;
  cfg.num_walkers = 16;
  cfg.walk_length = 5;
  cfg.record_paths = true;
  std::vector<uint64_t> edges_at;
  std::vector<std::vector<VertexId>> paths_at;
  {
    BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges));
    for (int b = 0;; ++b) {
      edges_at.push_back(reference.NumEdges());
      paths_at.push_back(RunDeepWalk(reference, cfg).paths);
      if (b == kBatches) {
        break;
      }
      reference.ApplyBatch(batch(b));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> observed{0};
  std::atomic<uint64_t> wrong{0};
  const auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      {
        const auto snap = service->Acquire();
        const uint64_t e = snap.epoch();
        const bool ok = snap.Consistent() && e < edges_at.size() &&
                        snap.store().NumEdges() == edges_at[e] &&
                        RunDeepWalk(snap.store(), cfg).paths == paths_at[e];
        wrong.fetch_add(ok ? 0 : 1, std::memory_order_relaxed);
        observed.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back(reader);
  }
  for (int b = 0; b < kBatches; ++b) {
    service->ApplyBatch(batch(b));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_GT(observed.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batches_applied, static_cast<uint64_t>(kBatches));
  // Readers sleep between snapshots, so most batches find none alive.
  EXPECT_LT(stats.batches_copied, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(service->Epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(service->DeepWalk(cfg).paths, paths_at.back());
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
}

// ------------------------------------------------------- concurrency --

constexpr std::size_t kStressWindow = 500;

// Streams `updates` in windows of kStressWindow through the stress driver
// while 4 query threads walk snapshots, then checks the protocol and the
// end state: no snapshot saw a freed version, invariants hold, and the
// service walks bit-identically to a bare store that applied the same
// batches (a batch reorders insert-before-delete per vertex, so the
// boundaries are semantically significant). Returns the final service.
std::unique_ptr<WalkService> StressAndCompareWithReplay(
    uint64_t graph_seed, core::BingoConfig config,
    const graph::UpdateList& updates) {
  const auto edges = TestGraph(graph_seed);
  util::ThreadPool pool(2);
  auto service = MakeWalkService(edges, kNumVertices, config, &pool, nullptr);

  StressOptions options;
  options.query_threads = 4;
  options.batch_size = kStressWindow;
  options.walkers_per_query = 128;
  options.walk_length = 8;
  const auto report = RunServiceStress(*service, updates, options);

  const uint64_t batches = (updates.size() + kStressWindow - 1) / kStressWindow;
  EXPECT_EQ(report.inconsistent_snapshots, 0u);
  EXPECT_EQ(report.batches, batches);
  EXPECT_GE(report.queries, static_cast<uint64_t>(options.query_threads));
  EXPECT_GT(report.walk_steps, 0u);
  EXPECT_LE(report.max_epoch_observed, batches);
  EXPECT_EQ(service->Epoch(), batches);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  const auto stats = service->Stats();
  EXPECT_EQ(stats.batches_applied, batches);
  EXPECT_EQ(stats.updates_applied, updates.size());
  EXPECT_GE(stats.queries_served, report.queries);

  BingoStore reference(graph::DynamicGraph::FromEdges(kNumVertices, edges),
                       config);
  for (std::size_t begin = 0; begin < updates.size(); begin += kStressWindow) {
    const std::size_t end = std::min(updates.size(), begin + kStressWindow);
    reference.ApplyBatch(
        graph::UpdateList(updates.begin() + begin, updates.begin() + end));
  }
  WalkConfig cfg;
  cfg.walk_length = 10;
  cfg.record_paths = true;
  EXPECT_EQ(service->DeepWalk(cfg).paths, RunDeepWalk(reference, cfg).paths);
  return service;
}

TEST(WalkServiceTest, ConcurrentQueriesDuringUpdatesStayConsistent) {
  StressAndCompareWithReplay(64, {}, MixedUpdates(31, 4000));
}

// Logical-clock ticks on a decaying pipeline while query threads hold
// snapshots. A tick re-buckets every stored bias, so under a live snapshot
// it copies every vertex.
TEST(WalkServiceTest, DecayTicksUnderLiveQueriesStayConsistent) {
  // Every odd window opens with a tick to the next epoch.
  auto updates = MixedUpdates(32, 8 * kStressWindow);
  uint32_t epoch = 0;
  for (std::size_t w = 1; w < 8; w += 2) {
    updates[w * kStressWindow] = graph::MakeAdvanceTime(++epoch);
  }
  core::BingoConfig config;
  config.pipeline.decay = 0.9;
  const auto service = StressAndCompareWithReplay(65, config, updates);
  EXPECT_EQ(service->Query([](const BingoStore& s) { return s.LogicalEpoch(); }),
            epoch);
}

}  // namespace
}  // namespace bingo::walk
