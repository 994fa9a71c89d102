// Crash-recovery tests for the WAL-backed checkpointing of WalkService and
// ShardedWalkService (the PR acceptance criteria):
//
//   * A service that is checkpointed, "crashed" (destroyed), and Recovered
//     mid-update-stream walks bit-identically — DeepWalk, node2vec, and
//     PPR — to an uninterrupted reference store, at shard counts 1/2/8,
//     and keeps doing so under further updates.
//   * An incremental checkpoint after a small delta writes O(delta) bytes
//     (asserted against the base size), not O(E).
//   * A WAL segment truncated mid-record recovers exactly the prefix of
//     complete records.
//
// The reference store mirrors the service's canonicalization points
// (AttachWal / compaction rebuild the store from the canonical edge
// list; see walk/service.h), which is precisely the contract that makes
// recovery deterministic: live state == bulk-load(base) + replay(WAL).
//
// BINGO_PERSIST_ROUNDS scales the long compaction/recovery loop (nightly
// profile via `ctest -L persistence`).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/core/snapshot.h"
#include "src/graph/bias.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "src/walk/apps.h"
#include "src/walk/batcher.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {
namespace {

using core::BingoStore;
using graph::VertexId;

int PersistRounds() {
  const char* env = std::getenv("BINGO_PERSIST_ROUNDS");
  const int rounds = env == nullptr ? 0 : std::atoi(env);
  return rounds > 0 ? rounds : 6;
}

std::string FreshDir(const std::string& name) {
  // Per-process uniqueness: ctest runs this binary twice concurrently (the
  // short profile and the BINGO_PERSIST_ROUNDS-scaled persistence_long).
  const std::string dir = ::testing::TempDir() + "/bingo_persist_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct TestGraph {
  VertexId num_vertices = 0;
  graph::WeightedEdgeList edges;
};

TestGraph MakeGraph(uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const int scale = 7;
  const VertexId n = VertexId{1} << scale;
  auto pairs = graph::GenerateRmat(scale, n * 6, rng);
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
      updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
    } else {
      updates.push_back(
          {graph::Update::Kind::kInsert, src, dst, 1.0 + rng.NextUnit() * 7.0});
    }
  }
  return updates;
}

// Mirrors the service's canonicalization point on the plain reference
// store: rebuild from the canonical edge list (per-vertex timestamp order).
void Canonicalize(std::unique_ptr<BingoStore>& store) {
  const VertexId n = store->NumVertices();
  const graph::WeightedEdgeList edges = core::CanonicalEdgeList(store->Graph());
  store = std::make_unique<BingoStore>(graph::DynamicGraph::FromEdges(n, edges),
                                       store->Config());
}

// DeepWalk + node2vec + PPR on a live store view vs the reference store;
// paths and visit counts must match bit for bit.
template <typename View>
void ExpectBitIdenticalStores(const View& live, const BingoStore& reference,
                              uint64_t seed, int round) {
  SCOPED_TRACE("walk seed=" + std::to_string(seed) +
               " round=" + std::to_string(round));
  WalkConfig cfg;
  cfg.num_walkers = 48;
  cfg.walk_length = 10;
  cfg.seed = seed ^ (static_cast<uint64_t>(round) << 24);
  cfg.record_paths = true;

  const WalkResult dw_s = RunDeepWalk(live, cfg);
  const WalkResult dw_r = RunDeepWalk(reference, cfg);
  ASSERT_EQ(dw_s.total_steps, dw_r.total_steps);
  ASSERT_EQ(dw_s.paths, dw_r.paths);

  const WalkResult n2v_s = RunNode2vec(live, cfg, {});
  const WalkResult n2v_r = RunNode2vec(reference, cfg, {});
  ASSERT_EQ(n2v_s.paths, n2v_r.paths);

  WalkConfig ppr_cfg = cfg;
  ppr_cfg.record_paths = false;
  const WalkResult ppr_s = RunPpr(live, ppr_cfg, 1.0 / 20.0);
  const WalkResult ppr_r = RunPpr(reference, ppr_cfg, 1.0 / 20.0);
  ASSERT_EQ(ppr_s.visit_counts, ppr_r.visit_counts);
  ASSERT_EQ(ppr_s.finished_walkers, ppr_r.finished_walkers);
}

void ExpectBitIdenticalWalks(const ShardedWalkService& service,
                             const BingoStore& reference, uint64_t seed,
                             int round) {
  const auto snap = service.Acquire();
  ASSERT_TRUE(snap.Consistent());
  ExpectBitIdenticalStores(snap, reference, seed, round);
}

void ExpectBitIdenticalWalks(const WalkService& service,
                             const BingoStore& reference, uint64_t seed,
                             int round) {
  const auto snap = service.Acquire();
  ASSERT_TRUE(snap.Consistent());
  ExpectBitIdenticalStores(snap.store(), reference, seed, round);
}

// The acceptance scenario: checkpoint, crash, recover mid-update-stream;
// walks stay bit-identical to an uninterrupted reference at 1/2/8 shards.
void RunCheckpointCrashRecover(int num_shards, uint64_t seed) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards) +
               " seed=" + std::to_string(seed));
  const TestGraph g = MakeGraph(seed);
  const std::string dir =
      FreshDir("ccr_" + std::to_string(num_shards) + "_" + std::to_string(seed));

  auto service = MakeShardedWalkService(g.edges, g.num_vertices, num_shards);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  util::Rng rng(seed ^ 0xfeedULL);

  // Pre-durability churn, then attach: the service canonicalizes its
  // store when it writes the base; mirror that on the reference.
  for (int round = 0; round < 2; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 120);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  const CheckpointResult base = service->AttachWal(dir);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(base.compacted);
  ASSERT_GT(base.bytes_written, 0u);
  Canonicalize(reference);
  ExpectBitIdenticalWalks(*service, *reference, seed, 100);

  // Journaled updates + an incremental checkpoint mid-stream.
  for (int round = 0; round < 3; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 90);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  const CheckpointResult inc = service->Checkpoint();
  ASSERT_TRUE(inc.ok);
  ASSERT_FALSE(inc.compacted);

  // More journaled updates that are never explicitly checkpointed, then
  // "crash": destroy the service. The WAL already holds the records.
  for (int round = 0; round < 2; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 70);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  service.reset();

  RecoveryReport report;
  auto recovered = RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr, {},
                                             &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.num_vertices, g.num_vertices);
  EXPECT_EQ(report.wal_updates_replayed, 3u * 90u + 2u * 70u)
      << "3 batches of 90 + 2 batches of 70 were journaled";
  EXPECT_TRUE(recovered->CheckInvariants().empty())
      << recovered->CheckInvariants();
  ExpectBitIdenticalWalks(*recovered, *reference, seed, 200);

  // The recovered service journals and serves like the crashed one would
  // have: further updates stay bit-identical.
  for (int round = 0; round < 2; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 80);
    recovered->ApplyBatch(batch);
    reference->ApplyBatch(batch);
    ExpectBitIdenticalWalks(*recovered, *reference, seed, 300 + round);
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, CheckpointCrashRecoverOneShard) {
  RunCheckpointCrashRecover(1, 11);
}

TEST(PersistenceTest, CheckpointCrashRecoverTwoShards) {
  RunCheckpointCrashRecover(2, 22);
}

TEST(PersistenceTest, CheckpointCrashRecoverEightShards) {
  RunCheckpointCrashRecover(8, 33);
}

// Temporal churn: inserts stamped with the batch's logical epoch, plus the
// usual deletes. Mirrors what a live temporal feed submits between ticks.
graph::UpdateList TemporalBatch(util::Rng& rng, VertexId n, std::size_t count,
                                uint32_t epoch) {
  graph::UpdateList updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(n));
    const auto dst = static_cast<VertexId>(rng.NextBounded(n));
    if (rng.NextBool(1.0 / 3.0)) {
      updates.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
    } else {
      updates.push_back({graph::Update::Kind::kInsert, src, dst,
                         1.0 + rng.NextUnit() * 7.0, epoch});
    }
  }
  return updates;
}

// The temporal acceptance scenario: a decaying service is checkpointed,
// crashes with an AdvanceTime tick (and churn) journaled but never
// checkpointed, and recovers bit-identically at 1/2/8 shards. The tick is
// an ordinary WAL record, so replay rescales exactly like the live apply
// did; the snapshot header's logical epoch seeds the clock so the replayed
// ages — and every decay^k multiply — line up with the reference.
void RunTemporalCrashRecover(int num_shards, uint64_t seed) {
  SCOPED_TRACE("temporal shards=" + std::to_string(num_shards) +
               " seed=" + std::to_string(seed));
  TestGraph g = MakeGraph(seed);
  for (graph::WeightedEdge& e : g.edges) {
    e.timestamp = static_cast<uint32_t>((e.src + e.dst) % 3);
  }
  core::BingoConfig config;
  config.pipeline.decay = 0.85;
  const std::string dir = FreshDir("temporal_" + std::to_string(num_shards));

  auto service =
      MakeShardedWalkService(g.edges, g.num_vertices, num_shards, config);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges), config);
  util::Rng rng(seed ^ 0x7e3aULL);
  uint32_t epoch = 3;  // timestamps run 0..2; first tick ages them 1..3

  // Pre-durability: churn plus a tick, so the base snapshot is written at a
  // nonzero logical epoch (the header must carry it through recovery).
  {
    const auto batch = TemporalBatch(rng, g.num_vertices, 120, 0);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  service->AdvanceTime(epoch);
  reference->ApplyBatch({graph::MakeAdvanceTime(epoch)});
  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);
  ExpectBitIdenticalWalks(*service, *reference, seed, 900);

  // Journaled but never checkpointed: churn, a tick (the re-bucketing
  // batch), more churn. Then crash.
  {
    const auto batch = TemporalBatch(rng, g.num_vertices, 90, epoch);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  ++epoch;
  service->AdvanceTime(epoch);
  reference->ApplyBatch({graph::MakeAdvanceTime(epoch)});
  {
    const auto batch = TemporalBatch(rng, g.num_vertices, 70, epoch);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  service.reset();

  // Recovery needs the matching pipeline config: the fingerprint covers
  // decay/horizon/gate, so a mismatched pipeline must refuse to load.
  core::BingoConfig mismatched = config;
  mismatched.pipeline.decay = 0.5;
  EXPECT_EQ(RecoverShardedWalkService(dir, mismatched), nullptr);

  RecoveryReport report;
  auto recovered = RecoverShardedWalkService(dir, config, 0, nullptr, nullptr,
                                             {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(report.ok);
  // Churn updates plus the broadcast tick (journaled once per shard).
  EXPECT_EQ(report.wal_updates_replayed,
            90u + 70u + static_cast<uint64_t>(num_shards));
  EXPECT_TRUE(recovered->CheckInvariants().empty())
      << recovered->CheckInvariants();
  ExpectBitIdenticalWalks(*recovered, *reference, seed, 901);

  // The decisive check for the recovered clock: another tick must rescale
  // from the REPLAYED epoch. A service that lost the epoch would compute
  // wrong age deltas here and diverge from the reference.
  ++epoch;
  recovered->AdvanceTime(epoch);
  reference->ApplyBatch({graph::MakeAdvanceTime(epoch)});
  {
    const auto batch = TemporalBatch(rng, g.num_vertices, 80, epoch);
    recovered->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  ExpectBitIdenticalWalks(*recovered, *reference, seed, 902);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, TemporalCrashRecoverOneShard) {
  RunTemporalCrashRecover(1, 311);
}

TEST(PersistenceTest, TemporalCrashRecoverTwoShards) {
  RunTemporalCrashRecover(2, 322);
}

TEST(PersistenceTest, TemporalCrashRecoverEightShards) {
  RunTemporalCrashRecover(8, 333);
}

TEST(PersistenceTest, IncrementalCheckpointWritesDeltaNotBase) {
  const TestGraph g = MakeGraph(44);
  const std::string dir = FreshDir("odelta");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 4);

  const CheckpointResult base = service->AttachWal(dir);
  ASSERT_TRUE(base.ok);
  // O(E) base: at least one packed 20-byte v3 record per edge (the
  // in-memory struct is padded wider, so sizeof() is not the disk bound).
  ASSERT_GT(base.bytes_written, g.edges.size() * 20u);

  // A small delta: ~20 updates against ~768 edges.
  util::Rng rng(4444);
  const auto batch = RandomBatch(rng, g.num_vertices, 20);
  service->ApplyBatch(batch);
  const CheckpointResult inc = service->Checkpoint();
  ASSERT_TRUE(inc.ok);
  EXPECT_FALSE(inc.compacted);
  EXPECT_GT(inc.bytes_written, 0u);
  // O(delta), not O(E): framing + ~17 bytes per update, far below the base.
  EXPECT_LT(inc.bytes_written, base.bytes_written / 8);
  EXPECT_LT(inc.bytes_written, 2048u);

  // A checkpoint with nothing new journaled writes (almost) nothing.
  const CheckpointResult idle = service->Checkpoint();
  ASSERT_TRUE(idle.ok);
  EXPECT_EQ(idle.bytes_written, 0u);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, CompactionRewritesBaseAndStaysBitIdentical) {
  const TestGraph g = MakeGraph(55);
  const std::string dir = FreshDir("compact");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 2);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));

  WalPersistenceOptions options;
  options.compact_fraction = 0.05;  // compact after a ~5% delta
  ASSERT_TRUE(service->AttachWal(dir, options).ok);
  Canonicalize(reference);

  util::Rng rng(5555);
  for (int round = 0; round < 3; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 100);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  const CheckpointResult compact = service->Checkpoint();
  ASSERT_TRUE(compact.ok);
  EXPECT_TRUE(compact.compacted);
  // Compaction canonicalizes the live store; mirror on the reference.
  Canonicalize(reference);
  ExpectBitIdenticalWalks(*service, *reference, 55, 400);

  // Post-compaction updates land in the fresh WAL segment; crash + recover
  // must replay only those.
  RecoveryReport report;
  const auto batch = RandomBatch(rng, g.num_vertices, 60);
  service->ApplyBatch(batch);
  reference->ApplyBatch(batch);
  service.reset();
  auto recovered = RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr,
                                             options, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.wal_updates_replayed, 60u);
  ExpectBitIdenticalWalks(*recovered, *reference, 55, 401);
  std::filesystem::remove_all(dir);
}

// ApplyBatch returns once the batch's version is published; a checkpoint
// straight after it must count that batch.
TEST(PersistenceTest, CheckpointRightAfterApplyCountsTheLastBatch) {
  const TestGraph g = MakeGraph(57);
  const std::string dir = FreshDir("deferred_count");
  auto service = MakeWalkService(g.edges, g.num_vertices);
  WalPersistenceOptions options;
  options.compact_fraction = 1.0;
  ASSERT_TRUE(service->AttachWal(dir, options).ok);

  // More inserts than the graph has edges: against the edge count before
  // the batch the delta crosses the compaction bound, against the live
  // count it does not.
  const std::size_t inserts = g.edges.size() + 50;
  util::Rng rng(5757);
  graph::UpdateList batch;
  for (std::size_t i = 0; i < inserts; ++i) {
    batch.push_back({graph::Update::Kind::kInsert,
                     static_cast<VertexId>(rng.NextBounded(g.num_vertices)),
                     static_cast<VertexId>(rng.NextBounded(g.num_vertices)),
                     1.0 + rng.NextUnit()});
  }
  service->ApplyBatch(batch);
  EXPECT_EQ(service->Query([](const BingoStore& s) { return s.NumEdges(); }),
            g.edges.size() + inserts);
  const CheckpointResult result = service->Checkpoint();
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.compacted);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  std::filesystem::remove_all(dir);
}

// A forced compaction straight after ApplyBatch writes the base from the
// version that batch published; walks stay bit-identical through further
// writes, a crash and recovery.
TEST(PersistenceTest, CompactionRightAfterApplyRecoversBitIdentical) {
  const TestGraph g = MakeGraph(58);
  const std::string dir = FreshDir("deferred_compact");
  auto service = MakeWalkService(g.edges, g.num_vertices);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);

  util::Rng rng(5858);
  for (int round = 0; round < 3; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 90);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  const CheckpointResult compact = service->Checkpoint(true);
  ASSERT_TRUE(compact.ok);
  EXPECT_TRUE(compact.compacted);
  Canonicalize(reference);
  ExpectBitIdenticalWalks(*service, *reference, 58, 0);

  // Two more writes on the rebuilt store.
  for (int round = 1; round <= 2; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 60);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
    ExpectBitIdenticalWalks(*service, *reference, 58, round);
  }
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();

  service.reset();  // crash
  RecoveryReport report;
  auto recovered = RecoverWalkService(dir, {}, 0, nullptr, nullptr, {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.wal_updates_replayed, 120u);
  ExpectBitIdenticalWalks(*recovered, *reference, 58, 3);
  EXPECT_TRUE(recovered->CheckInvariants().empty())
      << recovered->CheckInvariants();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, TruncatedWalReplaysExactPrefixOfRecords) {
  const TestGraph g = MakeGraph(66);
  const std::string dir = FreshDir("torn");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 1);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));

  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);

  util::Rng rng(6666);
  std::vector<graph::UpdateList> batches;
  for (int round = 0; round < 5; ++round) {
    batches.push_back(RandomBatch(rng, g.num_vertices, 50));
    service->ApplyBatch(batches.back());
  }
  service.reset();  // crash

  // Tear the tail of the (single) shard's WAL mid-record: the last batch's
  // record loses its final bytes, as if the crash hit during the append.
  const std::string wal_path = ShardWalDir(dir, 0) + "/wal.log";
  const auto full = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, full - 7);

  RecoveryReport report;
  auto recovered =
      RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr, {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(report.wal_tail_truncated);
  EXPECT_EQ(report.wal_records_replayed, 4u);
  EXPECT_EQ(report.wal_updates_replayed, 200u);

  // Reference fed exactly the surviving prefix walks identically.
  for (int round = 0; round < 4; ++round) {
    reference->ApplyBatch(batches[round]);
  }
  ExpectBitIdenticalWalks(*recovered, *reference, 66, 500);

  // And the torn tail was dropped for good: new updates append cleanly.
  const auto fresh = RandomBatch(rng, g.num_vertices, 40);
  recovered->ApplyBatch(fresh);
  reference->ApplyBatch(fresh);
  ExpectBitIdenticalWalks(*recovered, *reference, 66, 501);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, RecoveryRejectsConfigMismatchAndMissingDir) {
  const TestGraph g = MakeGraph(77);
  const std::string dir = FreshDir("cfg");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 2);
  ASSERT_TRUE(service->AttachWal(dir).ok);
  service.reset();

  core::BingoConfig other;
  other.lambda = 2.0;  // different factorization => different structures
  EXPECT_EQ(RecoverShardedWalkService(dir, other), nullptr);
  EXPECT_NE(RecoverShardedWalkService(dir), nullptr);
  EXPECT_EQ(RecoverShardedWalkService(FreshDir("nonexistent")), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, CrashBetweenCompactionRenamesRecovers) {
  // Simulate the narrow compaction window: the new base landed (rename 1)
  // but the old WAL segment survived (crash before rename 2). Replay must
  // skip every old record — the base already covers them.
  const TestGraph g = MakeGraph(88);
  const std::string dir = FreshDir("midcompact");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 1);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  WalPersistenceOptions force;
  force.compact_fraction = 0.0;  // any delta compacts
  ASSERT_TRUE(service->AttachWal(dir, force).ok);
  Canonicalize(reference);

  util::Rng rng(8888);
  const auto batch1 = RandomBatch(rng, g.num_vertices, 60);
  service->ApplyBatch(batch1);
  reference->ApplyBatch(batch1);

  // Stash the pre-compaction segment (one record, seq 1).
  const std::string wal_path = ShardWalDir(dir, 0) + "/wal.log";
  const std::string stash = wal_path + ".stash";
  std::filesystem::copy_file(wal_path, stash);

  const auto batch2 = RandomBatch(rng, g.num_vertices, 60);
  service->ApplyBatch(batch2);
  reference->ApplyBatch(batch2);
  const CheckpointResult compacted = service->Checkpoint();
  ASSERT_TRUE(compacted.ok);
  ASSERT_TRUE(compacted.compacted);
  Canonicalize(reference);
  service.reset();

  // Put the stale segment back: its last seq (1) < the base's wal_seq (2).
  std::filesystem::rename(stash, wal_path);

  RecoveryReport report;
  auto recovered =
      RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr, {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  ExpectBitIdenticalWalks(*recovered, *reference, 88, 600);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, ReattachOverOldWalDirSurvivesCrashBeforeWalReset) {
  // Regression: re-attaching into a directory that already holds journaled
  // records used to stamp the new base with wal_seq=0; a crash between the
  // base rename and the WAL reset then made recovery double-apply every
  // stale record. The base must be stamped past the old segment's last seq.
  const TestGraph g = MakeGraph(111);
  const std::string dir = FreshDir("reattach");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 1);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);

  util::Rng rng(1111);
  for (int round = 0; round < 3; ++round) {
    const auto batch = RandomBatch(rng, g.num_vertices, 50);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
  }
  // Stash the populated segment (records seq 1..3), then re-attach: the
  // fresh base subsumes those records and must be stamped past them.
  const std::string wal_path = ShardWalDir(dir, 0) + "/wal.log";
  const std::string stash = wal_path + ".stash";
  std::filesystem::copy_file(wal_path, stash);
  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);
  service.reset();

  // Crash window: the old segment survived the re-attach's WAL reset.
  std::filesystem::rename(stash, wal_path);
  RecoveryReport report;
  auto recovered =
      RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr, {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.wal_records_replayed, 0u)
      << "stale pre-re-attach records must not be re-applied";
  ExpectBitIdenticalWalks(*recovered, *reference, 111, 800);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, BatcherSubmitsSurviveCrashAfterFlush) {
  const TestGraph g = MakeGraph(99);
  const std::string dir = FreshDir("batcher");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 4);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  ASSERT_TRUE(service->AttachWal(dir).ok);
  Canonicalize(reference);

  // Single-edge submits, coalesced per shard, journaled before apply.
  BatcherOptions options;
  options.auto_flush = false;
  options.sync_wal_on_flush = true;
  util::Rng rng(9999);
  graph::UpdateList all;
  {
    UpdateBatcher batcher(*service, options);
    for (int round = 0; round < 3; ++round) {
      const auto batch = RandomBatch(rng, g.num_vertices, 64);
      for (const graph::Update& u : batch) {
        batcher.Submit(u);
      }
      batcher.Flush();  // applied + journaled + fsync'd past this point
      all.insert(all.end(), batch.begin(), batch.end());
    }
  }
  service.reset();  // crash after the last durable flush

  RecoveryReport report;
  auto recovered =
      RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr, {}, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.wal_updates_replayed, all.size());

  // The reference applies the same updates with the batcher's coalescing:
  // per-shard, in submit order, one batch per Flush round. With a plain
  // store that is equivalent to applying each round's slice per shard.
  const int num_shards = 4;
  std::size_t offset = 0;
  for (int round = 0; round < 3; ++round) {
    graph::UpdateList window(all.begin() + offset, all.begin() + offset + 64);
    offset += 64;
    for (int s = 0; s < num_shards; ++s) {
      graph::UpdateList slice;
      for (const graph::Update& u : window) {
        if (static_cast<int>(u.src % num_shards) == s) {
          slice.push_back(u);
        }
      }
      if (!slice.empty()) {
        reference->ApplyBatch(slice);
      }
    }
  }
  ExpectBitIdenticalWalks(*recovered, *reference, 99, 700);
  std::filesystem::remove_all(dir);
}

// --- base writes that skip (or must not skip) the canonical rebuild -------

// The front store of every shard: a canonical rebuild replaces it.
std::vector<const BingoStore*> FrontStores(const ShardedWalkService& service) {
  std::vector<const BingoStore*> stores;
  const auto snap = service.Acquire();
  for (int s = 0; s < service.NumShards(); ++s) {
    stores.push_back(&snap.shard_store(s));
  }
  return stores;
}

const BingoStore* FrontStore(const WalkService& service) {
  return service.Query([](const BingoStore& s) { return &s; });
}

// Updates, a mid-stream checkpoint, a crash and recovery; the recovered
// service must walk bit-identically to `reference` and stay so under more
// updates.
template <typename Service, typename Recover>
void UpdateCrashRecover(std::unique_ptr<Service> service,
                        std::unique_ptr<BingoStore>& reference,
                        const Recover& recover, uint64_t seed) {
  util::Rng rng(seed ^ 0x5c1bULL);
  const VertexId n = reference->NumVertices();
  for (int round = 0; round < 3; ++round) {
    const auto batch = RandomBatch(rng, n, 90);
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
    if (round == 1) {
      ASSERT_TRUE(service->Checkpoint().ok);
    }
  }
  ExpectBitIdenticalWalks(*service, *reference, seed, 800);
  service.reset();
  auto recovered = recover();
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->CheckInvariants().empty())
      << recovered->CheckInvariants();
  ExpectBitIdenticalWalks(*recovered, *reference, seed, 801);
  const auto batch = RandomBatch(rng, n, 70);
  recovered->ApplyBatch(batch);
  reference->ApplyBatch(batch);
  ExpectBitIdenticalWalks(*recovered, *reference, seed, 802);
}

// A freshly bulk-loaded service already is the canonical store recovery
// builds, so AttachWal writes the base without rebuilding the store: the
// front stores and the epoch are untouched, and the uncanonicalized
// bulk-load reference stays bit-identical through updates and recovery.
TEST(PersistenceTest, FreshAttachSkipsRebuildAndRecoversBitIdentical) {
  const TestGraph g = MakeGraph(91);
  for (const int num_shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    const std::string dir = FreshDir("skip_" + std::to_string(num_shards));
    auto service = MakeShardedWalkService(g.edges, g.num_vertices, num_shards);
    auto reference = std::make_unique<BingoStore>(
        graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
    const std::vector<const BingoStore*> before = FrontStores(*service);
    ASSERT_TRUE(service->AttachWal(dir).ok);
    EXPECT_EQ(FrontStores(*service), before);
    EXPECT_EQ(service->Epoch(), 0u);
    ExpectBitIdenticalWalks(*service, *reference, 91, 0);
    UpdateCrashRecover(std::move(service), reference,
                       [&] { return RecoverShardedWalkService(dir); }, 91);
    std::filesystem::remove_all(dir);
  }

  const std::string dir = FreshDir("skip_unsharded");
  auto service = MakeWalkService(g.edges, g.num_vertices);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
  const BingoStore* before = FrontStore(*service);
  ASSERT_TRUE(service->AttachWal(dir).ok);
  EXPECT_EQ(FrontStore(*service), before);
  EXPECT_EQ(service->Epoch(), 0u);
  UpdateCrashRecover(std::move(service), reference,
                     [&] { return RecoverWalkService(dir); }, 92);
  std::filesystem::remove_all(dir);
}

// Factory graphs that are not their own canonical bulk load are rebuilt:
// descending per-vertex timestamps (the canonical order reverses them),
// and deletions applied to the store before the service wraps it (with
// all-zero timestamps the adjacency order still reads as canonical, but
// the samplers carry the deletion history a bulk load would not).
TEST(PersistenceTest, NonCanonicalFactoryGraphIsRebuilt) {
  TestGraph descending = MakeGraph(93);
  for (std::size_t i = 0; i < descending.edges.size(); ++i) {
    descending.edges[i].timestamp =
        static_cast<uint32_t>(descending.edges.size() - i);
  }
  const TestGraph g = MakeGraph(94);
  util::Rng delete_rng(94);
  graph::UpdateList deletes;
  for (int i = 0; i < 40; ++i) {
    const graph::WeightedEdge& e =
        g.edges[delete_rng.NextBounded(g.edges.size())];
    deletes.push_back({graph::Update::Kind::kDelete, e.src, e.dst, 0.0});
  }
  const auto make_deleted = [&] {
    auto store = std::make_unique<BingoStore>(
        graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
    store->ApplyBatch(deletes);
    return store;
  };

  struct Case {
    std::string name;
    std::function<std::unique_ptr<BingoStore>()> factory;
  };
  const std::vector<Case> cases = {
      {"descending",
       [&] {
         return std::make_unique<BingoStore>(graph::DynamicGraph::FromEdges(
             descending.num_vertices, descending.edges));
       }},
      {"deleted", make_deleted},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir("noncanonical_" + c.name);
    auto service = std::make_unique<WalkService>(c.factory());
    auto reference = c.factory();
    ASSERT_FALSE(reference->Graph().IsCanonical());
    const BingoStore* before = FrontStore(*service);
    ASSERT_TRUE(service->AttachWal(dir).ok);
    EXPECT_NE(FrontStore(*service), before);
    EXPECT_EQ(service->Epoch(), 1u);
    Canonicalize(reference);
    ExpectBitIdenticalWalks(*service, *reference, 93, 0);
    UpdateCrashRecover(std::move(service), reference,
                       [&] { return RecoverWalkService(dir); }, 93);
    std::filesystem::remove_all(dir);
  }
}

// A batch applied before AttachWal forces the rebuild, even one that only
// deletes absent edges and so leaves every graph untouched.
TEST(PersistenceTest, AttachAfterApplyBatchStillRebuilds) {
  const TestGraph g = MakeGraph(95);
  for (const bool touches_graph : {false, true}) {
    SCOPED_TRACE(touches_graph ? "churn" : "absent deletes");
    const std::string dir =
        FreshDir(std::string("attach_after_batch_") + (touches_graph ? "1" : "0"));
    auto service = MakeShardedWalkService(g.edges, g.num_vertices, 2);
    auto reference = std::make_unique<BingoStore>(
        graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));
    util::Rng rng(95);
    graph::UpdateList batch;
    if (touches_graph) {
      batch = RandomBatch(rng, g.num_vertices, 120);
    } else {
      // One delete of an absent edge per shard (sources 0 and 1).
      for (VertexId src = 0; src < 2; ++src) {
        VertexId dst = 0;
        while (reference->HasEdge(src, dst)) {
          ++dst;
        }
        batch.push_back({graph::Update::Kind::kDelete, src, dst, 0.0});
      }
    }
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
    const std::vector<const BingoStore*> before = FrontStores(*service);
    const uint64_t epoch = service->Epoch();
    ASSERT_TRUE(service->AttachWal(dir).ok);
    const std::vector<const BingoStore*> after = FrontStores(*service);
    for (std::size_t s = 0; s < before.size(); ++s) {
      EXPECT_NE(after[s], before[s]) << "shard " << s;
    }
    EXPECT_EQ(service->Epoch(), epoch + 2) << "one rebuild per shard";
    Canonicalize(reference);
    ExpectBitIdenticalWalks(*service, *reference, 95, 0);
    UpdateCrashRecover(std::move(service), reference,
                       [&] { return RecoverShardedWalkService(dir); }, 95);
    std::filesystem::remove_all(dir);
  }
}

// Queries must keep serving — and stay consistent — while AttachWal and a
// compacting Checkpoint rebuild the store (the canonicalization path
// publishes like ApplyBatch). Run under TSan in
// CI alongside the other protocol stress tests.
TEST(PersistenceTest, QueriesServeThroughCheckpointCanonicalization) {
  const TestGraph g = MakeGraph(222);
  const std::string dir = FreshDir("concurrent");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 4);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      uint64_t iteration = 0;
      while (!stop.load(std::memory_order_acquire) || iteration == 0) {
        WalkConfig cfg;
        cfg.num_walkers = 64;
        cfg.walk_length = 8;
        cfg.seed = 222 + static_cast<uint64_t>(t) * 0x9e3779b9ULL + iteration;
        const auto snap = service->Acquire();
        RunDeepWalk(snap, cfg);
        if (!snap.Consistent()) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        ++iteration;
      }
    });
  }

  WalPersistenceOptions options;
  options.compact_fraction = 0.0;  // every checkpoint compacts (rebuilds)
  ASSERT_TRUE(service->AttachWal(dir, options).ok);
  util::Rng rng(2222);
  for (int round = 0; round < 5; ++round) {
    service->ApplyBatch(RandomBatch(rng, g.num_vertices, 80));
    const CheckpointResult ckpt = service->Checkpoint();
    ASSERT_TRUE(ckpt.ok);
    ASSERT_TRUE(ckpt.compacted);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_TRUE(service->CheckInvariants().empty()) << service->CheckInvariants();
  std::filesystem::remove_all(dir);
}

// The long compaction/recovery loop (nightly: BINGO_PERSIST_ROUNDS high).
TEST(PersistenceTest, CompactionRecoveryLoop) {
  const TestGraph g = MakeGraph(123);
  const std::string dir = FreshDir("loop");
  auto service = MakeShardedWalkService(g.edges, g.num_vertices, 4);
  auto reference = std::make_unique<BingoStore>(
      graph::DynamicGraph::FromEdges(g.num_vertices, g.edges));

  WalPersistenceOptions options;
  options.compact_fraction = 0.25;
  ASSERT_TRUE(service->AttachWal(dir, options).ok);
  Canonicalize(reference);

  util::Rng rng(321);
  const int rounds = PersistRounds();
  for (int round = 0; round < rounds; ++round) {
    const auto batch =
        RandomBatch(rng, g.num_vertices, 60 + rng.NextBounded(90));
    service->ApplyBatch(batch);
    reference->ApplyBatch(batch);
    const CheckpointResult ckpt = service->Checkpoint();
    ASSERT_TRUE(ckpt.ok) << "round " << round;
    if (ckpt.compacted) {
      Canonicalize(reference);
    }
    if (round % 3 == 2) {
      service.reset();  // crash + recover mid-loop
      RecoveryReport report;
      service = RecoverShardedWalkService(dir, {}, 0, nullptr, nullptr,
                                          options, &report);
      ASSERT_NE(service, nullptr) << "round " << round;
      ASSERT_TRUE(report.ok);
    }
    ExpectBitIdenticalWalks(*service, *reference, 123, round);
    ASSERT_TRUE(service->CheckInvariants().empty())
        << service->CheckInvariants();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bingo::walk
