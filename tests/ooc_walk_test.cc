// Tests for the out-of-core walk path: the tiered store, the block-
// scheduled driver, and the streamed service recovery.
//
// The load-bearing contract is bit-identity: a TieredStore walk of a given
// history produces the SAME output through every driver that runs on it
// (engine, block-scheduled OOC, fused), at every memory budget (unconstrained
// down to a single resident block), at every thread count, with or without
// walker spill. Everything here compares full outputs — paths, offsets,
// visit counts — not statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/update_stream.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/fused.h"
#include "src/walk/ooc.h"
#include "src/walk/ooc_service.h"
#include "src/walk/ooc_store.h"
#include "src/walk/service.h"

namespace bingo::walk {
namespace {

using graph::VertexId;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// XOR-flips one byte so the content is guaranteed to change.
void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5a;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

graph::WeightedEdgeList RmatEdges(uint64_t seed) {
  util::Rng rng(seed);
  auto pairs = graph::GenerateRmat(9, 6000, rng);
  graph::Canonicalize(pairs);
  graph::WeightedEdgeList edges;
  edges.reserve(pairs.size());
  uint32_t ts = 0;
  for (const auto& [src, dst] : pairs) {
    graph::WeightedEdge e;
    e.src = src;
    e.dst = dst;
    e.bias = 1.0 + (ts % 5);
    e.timestamp = ts++;
    edges.push_back(e);
  }
  return edges;
}

// Writes a multi-block container for `edges` and returns its path. A 4 KiB
// block target yields dozens of blocks at this scale, so fractional budgets
// exercise real eviction.
std::string WriteCsr(const graph::WeightedEdgeList& edges, const char* name) {
  const std::string path = TempPath(name);
  const VertexId n =
      std::max<VertexId>(512, graph::ImpliedVertexCount(edges));
  std::string error;
  EXPECT_TRUE(graph::WriteCsrFile(path, n, edges, 4096, &error)) << error;
  return path;
}

std::unique_ptr<TieredStore> OpenTiered(const std::string& csr_path,
                                        std::size_t budget_bytes,
                                        util::ThreadPool* pool = nullptr) {
  TieredStoreOptions options;
  options.memory_budget_bytes = budget_bytes;
  std::string error;
  auto store = TieredStore::Open(csr_path, {}, options, pool, &error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

// Full-output equality (not a hash): any divergence names its first index.
void ExpectSameResult(const WalkResult& a, const WalkResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.total_steps, b.total_steps) << what;
  EXPECT_EQ(a.finished_walkers, b.finished_walkers) << what;
  ASSERT_EQ(a.path_offsets, b.path_offsets) << what;
  ASSERT_EQ(a.paths, b.paths) << what;
  ASSERT_EQ(a.visit_counts, b.visit_counts) << what;
}

WalkConfig SmallConfig() {
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.record_paths = true;
  cfg.seed = 99;
  return cfg;
}

std::size_t EdgeBytes(const graph::WeightedEdgeList& edges) {
  return edges.size() * sizeof(graph::Edge);
}

TEST(OocWalkTest, MatchesEngineAcrossBudgetsThreadsAndApps) {
  const auto edges = RmatEdges(21);
  const std::string csr = WriteCsr(edges, "ooc_matrix.csr");
  const WalkConfig cfg = SmallConfig();

  // References: the shared-memory engine over the unconstrained tier.
  const auto reference_store = OpenTiered(csr, 0);
  const WalkResult ref_deepwalk = RunDeepWalk(*reference_store, cfg);
  const WalkResult ref_node2vec = RunNode2vec(*reference_store, cfg);
  const WalkResult ref_ppr = RunPpr(*reference_store, cfg);

  const std::size_t eb = EdgeBytes(edges);
  for (const std::size_t budget : {std::size_t{0}, eb / 2, eb / 4}) {
    for (const std::size_t threads : {1u, 4u, 16u}) {
      util::PoolOptions pool_options;
      pool_options.num_threads = threads;
      util::ThreadPool pool(pool_options);
      const auto store = OpenTiered(csr, budget);
      const std::string what = "budget=" + std::to_string(budget) +
                               " threads=" + std::to_string(threads);
      const OocWalkResult dw = RunOocDeepWalk(*store, cfg, &pool);
      ASSERT_TRUE(dw.error.empty()) << what << ": " << dw.error;
      ExpectSameResult(dw, ref_deepwalk, "deepwalk " + what);
      const OocWalkResult n2v =
          RunOocApp(*store, cfg, Node2vecApp{}, &pool);
      ASSERT_TRUE(n2v.error.empty()) << what << ": " << n2v.error;
      ExpectSameResult(n2v, ref_node2vec, "node2vec " + what);
      const OocWalkResult ppr = RunOocApp(*store, cfg, PprApp{}, &pool);
      ASSERT_TRUE(ppr.error.empty()) << what << ": " << ppr.error;
      ExpectSameResult(ppr, ref_ppr, "ppr " + what);
      if (budget > 0) {
        EXPECT_GT(dw.block_loads, 0u) << what;
      }
    }
  }
  std::remove(csr.c_str());
}

TEST(OocWalkTest, IdentityHoldsAfterUpdatesIncludingBaseDeletes) {
  const auto edges = RmatEdges(22);
  const std::string csr = WriteCsr(edges, "ooc_updates.csr");
  util::ThreadPool pool;

  // A batch that inserts fresh edges and deletes base edges — deletions
  // force promotion of CSR-resident vertices into the overlay.
  graph::UpdateList batch;
  for (int i = 0; i < 200; ++i) {
    graph::Update ins;
    ins.kind = graph::Update::Kind::kInsert;
    ins.src = static_cast<VertexId>((i * 37) % 512);
    ins.dst = static_cast<VertexId>((i * 101 + 5) % 512);
    ins.bias = 2.5;
    batch.push_back(ins);
  }
  for (int i = 0; i < 64; ++i) {
    const graph::WeightedEdge& victim = edges[(i * 89) % edges.size()];
    graph::Update del;
    del.kind = graph::Update::Kind::kDelete;
    del.src = victim.src;
    del.dst = victim.dst;
    batch.push_back(del);
  }

  const auto apply = [&](TieredStore& store) {
    const auto result = store.ApplyBatch(batch, &pool);
    EXPECT_GT(result.inserted, 0u);
    EXPECT_GT(result.deleted, 0u);
    EXPECT_TRUE(store.CheckInvariants().empty()) << store.CheckInvariants();
  };

  const WalkConfig cfg = SmallConfig();
  const auto reference_store = OpenTiered(csr, 0);
  apply(*reference_store);
  const WalkResult reference = RunDeepWalk(*reference_store, cfg);

  const auto budgeted = OpenTiered(csr, EdgeBytes(edges) / 4);
  apply(*budgeted);
  const OocWalkResult ooc = RunOocDeepWalk(*budgeted, cfg, &pool);
  ASSERT_TRUE(ooc.error.empty()) << ooc.error;
  ExpectSameResult(ooc, reference, "post-update deepwalk");
  std::remove(csr.c_str());
}

TEST(OocWalkTest, ResidentBytesStayWithinBudgetPlusOneBlock) {
  const auto edges = RmatEdges(23);
  const std::string csr = WriteCsr(edges, "ooc_budget.csr");
  const std::size_t budget = EdgeBytes(edges) / 8;
  const auto store = OpenTiered(csr, budget);

  std::size_t max_block = 0;
  for (uint32_t b = 0; b < store->Csr().NumBlocks(); ++b) {
    max_block = std::max(max_block, store->Csr().BlockPayloadBytes(b));
  }

  util::ThreadPool pool;
  const OocWalkResult result = RunOocDeepWalk(*store, SmallConfig(), &pool);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_GT(result.block_evictions, 0u);
  // The cache loads the incoming block before evicting, so the transient
  // ceiling is the budget plus one block.
  EXPECT_LE(result.peak_resident_bytes, budget + max_block);
  std::remove(csr.c_str());
}

TEST(OocWalkTest, SpilledParkingQueuesProduceIdenticalOutput) {
  const auto edges = RmatEdges(24);
  const std::string csr = WriteCsr(edges, "ooc_spill.csr");
  const std::string spill_dir = TempPath("ooc_spill_dir");
  std::filesystem::create_directories(spill_dir);
  const WalkConfig cfg = SmallConfig();

  const auto reference_store = OpenTiered(csr, 0);
  const WalkResult reference = RunDeepWalk(*reference_store, cfg);

  util::ThreadPool pool;
  const auto store = OpenTiered(csr, EdgeBytes(edges) / 4);
  OocWalkOptions options;
  options.spill_threshold_walkers = 1;  // spill every parked queue
  options.spill_dir = spill_dir;
  const OocWalkResult spilled = RunOocDeepWalk(*store, cfg, &pool, options);
  ASSERT_TRUE(spilled.error.empty()) << spilled.error;
  EXPECT_GT(spilled.spilled_walkers, 0u);
  ExpectSameResult(spilled, reference, "spilled deepwalk");
  // The spill files are transient: nothing survives the walk.
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  std::filesystem::remove_all(spill_dir);
  std::remove(csr.c_str());
}

TEST(OocWalkTest, SpillThresholdWithoutDirectoryIsAnError) {
  const auto edges = RmatEdges(28);
  const std::string csr = WriteCsr(edges, "ooc_spill_nodir.csr");
  const auto store = OpenTiered(csr, EdgeBytes(edges) / 4);
  OocWalkOptions options;
  options.spill_threshold_walkers = 1;  // spilling asked for, nowhere to go
  util::ThreadPool pool;
  const OocWalkResult result =
      RunOocDeepWalk(*store, SmallConfig(), &pool, options);
  EXPECT_FALSE(result.error.empty());
  // Rejected before any walker moved.
  EXPECT_EQ(result.total_steps, 0u);
  EXPECT_EQ(result.block_passes, 0u);
  EXPECT_EQ(result.spilled_walkers, 0u);
  // The store is left walkable: the exclusive-walk gate was never taken.
  const OocWalkResult retry = RunOocDeepWalk(*store, SmallConfig(), &pool);
  EXPECT_TRUE(retry.error.empty()) << retry.error;
  std::remove(csr.c_str());
}

TEST(OocWalkTest, FusedDriverMatchesOnTieredStore) {
  const auto edges = RmatEdges(25);
  const std::string csr = WriteCsr(edges, "ooc_drivers.csr");
  const WalkConfig cfg = SmallConfig();
  util::ThreadPool pool;

  const auto reference_store = OpenTiered(csr, 0);
  const WalkResult reference = RunDeepWalk(*reference_store, cfg);

  // Fused driver, unconstrained: the batched front-end over the same store.
  WalkResult fused;
  RunFusedApp(*reference_store, std::span<const WalkConfig>(&cfg, 1),
              DeepWalkApp{}, std::span<WalkResult>(&fused, 1), &pool);
  ExpectSameResult(fused, reference, "fused on tiered");
  std::remove(csr.c_str());
}

TEST(OocWalkTest, ConcurrentWalksOnBudgetedStoreAreRejected) {
  const auto edges = RmatEdges(26);
  const std::string csr = WriteCsr(edges, "ooc_exclusive.csr");
  const auto store = OpenTiered(csr, EdgeBytes(edges) / 4);
  ASSERT_TRUE(store->TryBeginExclusiveWalk());  // someone else is walking
  const OocWalkResult result = RunOocDeepWalk(*store, SmallConfig());
  EXPECT_FALSE(result.error.empty());
  store->EndExclusiveWalk();
  const OocWalkResult retry = RunOocDeepWalk(*store, SmallConfig());
  EXPECT_TRUE(retry.error.empty()) << retry.error;
  std::remove(csr.c_str());
}

TEST(OocWalkTest, CorruptBlockSurfacesAsErrorNotCrash) {
  const auto edges = RmatEdges(27);
  const std::string csr = WriteCsr(edges, "ooc_corrupt_block.csr");
  const auto store = OpenTiered(csr, EdgeBytes(edges) / 4);
  // Damage the last edge record on disk after Open: the per-block CRC
  // catches it at map time and the walk reports, it does not fault.
  FlipByte(csr, std::filesystem::file_size(csr) - 4);
  util::ThreadPool pool;
  const OocWalkResult result = RunOocDeepWalk(*store, SmallConfig(), &pool);
  EXPECT_FALSE(result.error.empty());
  std::remove(csr.c_str());
}

TEST(OocServiceTest, StreamedRecoveryMatchesFreshBuildPlusReplay) {
  const std::string dir = TempPath("ooc_recover");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto edges = RmatEdges(28);
  const VertexId n =
      std::max<VertexId>(512, graph::ImpliedVertexCount(edges));
  util::ThreadPool pool;

  // In-memory service writes the durability state: a base checkpoint, then
  // two journaled-but-not-checkpointed batches (the WAL suffix).
  graph::UpdateWorkloadParams params;
  params.batch_size = 300;
  params.num_batches = 2;
  util::Rng rng(5);
  auto workload = graph::BuildUpdateWorkload(edges, params, rng);
  const auto batches =
      graph::SplitIntoBatches(workload.updates, params.batch_size);
  {
    auto service = MakeWalkService(workload.initial_edges, n, {}, &pool,
                                   &pool);
    ASSERT_TRUE(service->AttachWal(dir).ok);
    ASSERT_TRUE(service->Checkpoint().ok);
    for (const auto& batch : batches) {
      service->ApplyBatch(batch);
    }
    // Destroyed without a checkpoint: recovery must replay the suffix.
  }

  RecoveryReport report;
  std::string error;
  OocServiceOptions options;
  options.store.memory_budget_bytes = 1 << 16;
  auto recovered = RecoverOocWalkService(dir, {}, options, &pool, &pool,
                                         &report, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.wal_records_replayed, batches.size());
  EXPECT_TRUE(recovered->CheckInvariants().empty())
      << recovered->CheckInvariants();

  // Fresh build + manual replay over the same base.
  const std::string csr2 = TempPath("ooc_recover_fresh.csr");
  core::SnapshotInfo info;
  ASSERT_TRUE(BuildCsrFromSnapshot(dir + "/base.snapshot", csr2, 4096, &info,
                                   &error))
      << error;
  EXPECT_EQ(info.num_edges, workload.initial_edges.size());
  const auto fresh = OpenTiered(csr2, 0, &pool);
  for (const auto& batch : batches) {
    fresh->ApplyBatch(batch, &pool);
  }

  const WalkConfig cfg = SmallConfig();
  const WalkResult via_recovery = recovered->DeepWalk(cfg);
  const WalkResult via_fresh = RunDeepWalk(*fresh, cfg);
  ExpectSameResult(via_recovery, via_fresh, "recovered vs fresh");

  // The adopted WAL keeps journaling: one more batch round-trips into an
  // in-memory recovery later.
  recovered->ApplyBatch(batches.front());
  EXPECT_TRUE(recovered->CheckInvariants().empty());

  std::remove(csr2.c_str());
  std::filesystem::remove_all(dir);
}

// A snapshot pinned across an ApplyBatch that promotes base vertices keeps
// walking the version it pinned: the overlay, the promoted set and the
// live-edge count it reads are that version's, while the writer — racing
// the pinned reader (the TSan job runs this) — publishes the next one.
TEST(OocServiceTest, SnapshotSurvivesPromotingBatch) {
  const auto edges = RmatEdges(30);
  const std::string csr = WriteCsr(edges, "ooc_pinned.csr");
  util::ThreadPool pool(2);
  std::string error;
  auto service = MakeOocWalkService(csr, {}, {}, &pool, &pool, &error);
  ASSERT_NE(service, nullptr) << error;

  // Deletes of base edges (promoting their sources) plus fresh inserts.
  graph::UpdateList batch;
  for (int i = 0; i < 48; ++i) {
    const graph::WeightedEdge& victim = edges[(i * 131) % edges.size()];
    batch.push_back({graph::Update::Kind::kDelete, victim.src, victim.dst, 0.0});
    batch.push_back({graph::Update::Kind::kInsert, victim.src,
                     static_cast<VertexId>((i * 7) % 512), 3.0});
  }

  const WalkConfig cfg = SmallConfig();
  auto snap = service->Acquire();
  const WalkResult before = RunDeepWalk(snap.store(), cfg);
  const WalkResult before_n2v = RunNode2vec(snap.store(), cfg);
  const uint64_t edges_before = snap.store().NumEdges();
  ASSERT_EQ(snap.store().PromotedVertices(), 0u);

  std::thread writer([&] { service->ApplyBatch(batch); });
  const WalkResult during = RunDeepWalk(snap.store(), cfg);
  writer.join();

  EXPECT_EQ(service->Epoch(), 1u);
  {
    const auto now = service->Acquire();
    EXPECT_GT(now.store().PromotedVertices(), 0u);
    EXPECT_NE(RunDeepWalk(now.store(), cfg).paths, before.paths);
  }
  EXPECT_EQ(snap.store().PromotedVertices(), 0u);
  EXPECT_EQ(snap.store().NumEdges(), edges_before);
  ExpectSameResult(during, before, "pinned deepwalk while the batch applied");
  ExpectSameResult(RunDeepWalk(snap.store(), cfg), before, "pinned deepwalk");
  ExpectSameResult(RunNode2vec(snap.store(), cfg), before_n2v,
                   "pinned node2vec");
  EXPECT_TRUE(snap.Consistent());
  EXPECT_GT(service->MemoryStats().retired_bytes, 0u);

  { auto release = std::move(snap); }
  EXPECT_EQ(service->MemoryStats().retired_bytes, 0u);
  EXPECT_TRUE(service->CheckInvariants().empty())
      << service->CheckInvariants();
  std::remove(csr.c_str());
}

TEST(OocServiceTest, CorruptOrTruncatedSnapshotFailsRecoveryCleanly) {
  const std::string dir = TempPath("ooc_recover_corrupt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto edges = RmatEdges(29);
  const VertexId n =
      std::max<VertexId>(512, graph::ImpliedVertexCount(edges));
  util::ThreadPool pool;
  {
    auto service = MakeWalkService(edges, n, {}, &pool, &pool);
    ASSERT_TRUE(service->AttachWal(dir).ok);
    ASSERT_TRUE(service->Checkpoint().ok);
  }
  const std::string snapshot = dir + "/base.snapshot";
  const uint64_t full = std::filesystem::file_size(snapshot);
  const auto recover = [&]() {
    std::string error;
    auto service =
        RecoverOocWalkService(dir, {}, {}, &pool, &pool, nullptr, &error);
    if (service == nullptr) {
      EXPECT_FALSE(error.empty());
    }
    return service;
  };

  // Baseline sanity: the untouched directory recovers.
  ASSERT_NE(recover(), nullptr);

  // Payload corruption in the snapshot: the streamed pass's CRC check
  // rejects it, and a failed stream fails the recovery.
  FlipByte(snapshot, full / 2);
  EXPECT_EQ(recover(), nullptr);

  // Truncation sweep: every prefix fails cleanly.
  for (const uint64_t len : {uint64_t{0}, uint64_t{10}, full / 3, full - 1}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto service = MakeWalkService(edges, n, {}, &pool, &pool);
    ASSERT_TRUE(service->AttachWal(dir).ok);
    ASSERT_TRUE(service->Checkpoint().ok);
    service.reset();
    std::filesystem::resize_file(snapshot, len);
    EXPECT_EQ(recover(), nullptr) << "length " << len;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bingo::walk
