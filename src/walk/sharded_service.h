// ShardedWalkService: per-shard copy-on-write stores with independent
// epochs.
//
// This subsystem shards the service the same way PartitionedBingoStore
// shards the store: vertex v's out-edges (and its sampler) live on shard
// v % num_shards, and each shard is an independent WalkServiceT — one
// store with its own versions, epoch and writer lock. A batch pays one
// ApplyBatch per touched shard, over that shard's slice; slices of one
// batch, and batches for disjoint shards, apply in parallel. A shard
// applies its slice in place when no snapshot of that shard is alive, and
// over copies of the touched vertices otherwise (walk/service.h). Queries
// never wait for a copy; a composite Acquire waits at most for one
// in-place slice per shard, and may do so while it already holds the
// snapshots of the shards before it. Sharding does not buy update latency
// by shrinking the store a batch is applied to; what it adds is a writer
// lock per shard, which lets several writers apply at once.
//
// Queries Acquire() a multi-shard Snapshot: one per-shard snapshot each,
// composed into a view that models the store concepts (SamplingStore, and
// AdjacencyStore when the backend does), so the store-generic walk engine
// runs on it unchanged. Each per-shard snapshot is immutable for its
// lifetime (the inner service guarantees it); the composite is therefore
// per-shard consistent. It is NOT a global serialization point: two shards
// may be pinned at epochs published by different batches. At any quiescent
// point (no in-flight writer) the composite equals one whole-graph store —
// tests/sharded_fuzz_test.cc pins walks to the unsharded store bit for bit.
//
// Update latency model: a batch B is visible once, per touched shard s and
// in parallel across shards, ApplyBatch(shard s slice of B) has copied the
// slice's vertices, applied it and published; the untouched vertices of the
// shard cost nothing. bench/e2e measures update latency under a live query
// stream; walk/stress.h drives the same race in the concurrency tests.
//
// The caveat of walk/service.h carries over per shard: CheckInvariants,
// MemoryStats and the durability calls take each shard's writer lock.

#ifndef BINGO_SRC_WALK_SHARDED_SERVICE_H_
#define BINGO_SRC_WALK_SHARDED_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/core/store_types.h"
#include "src/graph/types.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/service.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct ShardedServiceStats {
  int num_shards = 0;
  uint64_t epoch = 0;            // sum of shard epochs (batches x shards hit)
  uint64_t queries_served = 0;   // composite snapshots handed out
  uint64_t batches_applied = 0;  // per-shard batches (one multi-shard
                                 // ApplyBatch counts once per shard hit)
  uint64_t batches_copied = 0;   // per-shard batches applied over copies
                                 // (see ServiceStats::batches_copied)
  uint64_t updates_applied = 0;
  uint64_t drain_spins = 0;      // always 0 (see ServiceStats::drain_spins)
  uint64_t wal_records = 0;      // per-shard batches journaled
  uint64_t wal_updates = 0;
  uint64_t checkpoints = 0;      // per-shard checkpoint operations
  uint64_t compactions = 0;
};

// Durability manifest for a sharded checkpoint directory: records the shard
// count so recovery can rebuild the same layout. Written atomically.
bool WriteShardedWalManifest(const std::string& dir, int num_shards);
bool ReadShardedWalManifest(const std::string& dir, int& num_shards);

// Per-shard subdirectory of a sharded durability directory.
std::string ShardWalDir(const std::string& dir, int shard);

template <VersionedStore Store>
class ShardedWalkServiceT {
 public:
  using ShardService = WalkServiceT<Store>;

  // `factory(shard)` builds shard s's store: the out-edges of the vertices
  // with v % num_shards == s, over the full vertex-id space.
  ShardedWalkServiceT(
      int num_shards,
      const std::function<std::unique_ptr<Store>(int shard)>& factory,
      util::ThreadPool* update_pool = nullptr)
      : route_pool_(update_pool) {
    assert(num_shards > 0);
    shards_.reserve(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      // Shard stores apply their slices without a pool: the pool's parallel
      // dimension is across shards (ApplyBatch routes slices onto it), and
      // nesting ParallelFor inside pool tasks can starve this fixed-size
      // pool.
      shards_.push_back(
          std::make_unique<ShardService>(factory(s), /*update_pool=*/nullptr));
    }
  }

  // Recovery path: adopt already-built shard services (one per shard, e.g.
  // each RecoverWalkService'd from its shard directory).
  explicit ShardedWalkServiceT(
      std::vector<std::unique_ptr<ShardService>> shards,
      util::ThreadPool* update_pool = nullptr)
      : shards_(std::move(shards)), route_pool_(update_pool) {
    assert(!shards_.empty());
  }

  ShardedWalkServiceT(const ShardedWalkServiceT&) = delete;
  ShardedWalkServiceT& operator=(const ShardedWalkServiceT&) = delete;

  int NumShards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(graph::VertexId v) const {
    return static_cast<int>(v % shards_.size());
  }

  // A composite of one pinned snapshot per shard, modeling the store
  // concepts so the engine and apps walk it like any backend.
  class Snapshot {
   public:
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;

    graph::VertexId NumVertices() const {
      // Shards grow lazily when a batch slice references brand-new vertex
      // ids, so a new vertex materializes only on the shards whose slices
      // mention it; the widest shard carries the true count (reads of an
      // id a shard has not materialized answer "isolated", matching the
      // whole-graph store).
      graph::VertexId n = 0;
      for (const auto& snap : shards_) {
        n = std::max(n,
                     static_cast<graph::VertexId>(snap.store().NumVertices()));
      }
      return n;
    }
    graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
      return ShardFor(v).SampleNeighbor(v, rng);
    }
    void SampleNeighborBatch(graph::VertexId v, util::Rng* const* rngs,
                             std::size_t n, graph::VertexId* out) const
      requires BatchSamplingStore<Store>
    {
      ShardFor(v).SampleNeighborBatch(v, rngs, n, out);
    }
    void PrefetchVertex(graph::VertexId v) const
      requires BatchSamplingStore<Store>
    {
      ShardFor(v).PrefetchVertex(v);
    }
    bool HasEdge(graph::VertexId src, graph::VertexId dst) const
      requires AdjacencyStore<Store>
    {
      return ShardFor(src).HasEdge(src, dst);
    }
    std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const
      requires AdjacencyStore<Store>
    {
      return ShardFor(v).NeighborsOf(v);
    }

    // Sum of pinned shard epochs; advances by one per shard a batch hit.
    uint64_t epoch() const {
      uint64_t total = 0;
      for (const auto& snap : shards_) {
        total += snap.epoch();
      }
      return total;
    }

    // True while every pinned shard version is intact (nothing it reads
    // has been reclaimed).
    bool Consistent() const {
      for (const auto& snap : shards_) {
        if (!snap.Consistent()) {
          return false;
        }
      }
      return true;
    }

    const Store& shard_store(int s) const {
      return shards_[static_cast<std::size_t>(s)].store();
    }

   private:
    friend class ShardedWalkServiceT;
    explicit Snapshot(std::vector<typename ShardService::Snapshot> shards)
        : shards_(std::move(shards)) {}

    const Store& ShardFor(graph::VertexId v) const {
      return shards_[v % shards_.size()].store();
    }

    std::vector<typename ShardService::Snapshot> shards_;
  };

  Snapshot Acquire() const {
    std::vector<typename ShardService::Snapshot> snaps;
    snaps.reserve(shards_.size());
    for (const auto& shard : shards_) {
      snaps.push_back(shard->Acquire());
    }
    queries_.fetch_add(1, std::memory_order_relaxed);
    return Snapshot(std::move(snaps));
  }

  // Runs `fn(const Snapshot&)` on a freshly acquired composite snapshot.
  template <typename Fn>
  auto Query(Fn&& fn) const {
    const Snapshot snap = Acquire();
    return std::forward<Fn>(fn)(snap);
  }

  WalkResult DeepWalk(const WalkConfig& cfg,
                      util::ThreadPool* pool = nullptr) const {
    return Query([&](const Snapshot& s) { return RunDeepWalk(s, cfg, pool); });
  }
  WalkResult Ppr(const WalkConfig& cfg, double stop_probability = 1.0 / 80.0,
                 util::ThreadPool* pool = nullptr) const {
    return Query(
        [&](const Snapshot& s) { return RunPpr(s, cfg, stop_probability, pool); });
  }
  WalkResult Node2vec(const WalkConfig& cfg, const Node2vecParams& params = {},
                      util::ThreadPool* pool = nullptr) const
    requires AdjacencyStore<Store>
  {
    return Query(
        [&](const Snapshot& s) { return RunNode2vec(s, cfg, params, pool); });
  }

  // Routes `updates` by source vertex and applies each shard's slice as one
  // batch through that shard's service; slices run in
  // parallel on `pool` (falls back to the construction-time update pool,
  // then to sequential). Call from a non-pool thread only: slices ride the
  // pool's fixed workers. Accounting is exact: slices partition the batch
  // by vertex, and a store batch is applied insert->delete->rebuild per
  // vertex, so the summed BatchResult equals an unsharded store's.
  core::BatchResult ApplyBatch(const graph::UpdateList& updates,
                               util::ThreadPool* pool = nullptr) {
    std::vector<graph::UpdateList> per_shard(shards_.size());
    for (const graph::Update& u : updates) {
      if (u.kind == graph::Update::Kind::kAdvanceTime) {
        // Global clock tick: every shard must advance (and journal the
        // tick in its own WAL so per-shard recovery replays it). src is
        // kInvalidVertex and must not route.
        for (auto& slice : per_shard) {
          slice.push_back(u);
        }
        continue;
      }
      per_shard[ShardOf(u.src)].push_back(u);
    }
    if (pool == nullptr) {
      pool = route_pool_;
    }
    std::atomic<uint64_t> inserted{0};
    std::atomic<uint64_t> deleted{0};
    std::atomic<uint64_t> skipped{0};
    const auto run_shard = [&](std::size_t s) {
      if (per_shard[s].empty()) {
        return;  // untouched shard: no epoch bump, no work
      }
      const core::BatchResult r = shards_[s]->ApplyBatch(per_shard[s]);
      inserted.fetch_add(r.inserted, std::memory_order_relaxed);
      deleted.fetch_add(r.deleted, std::memory_order_relaxed);
      skipped.fetch_add(r.skipped_deletes, std::memory_order_relaxed);
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, shards_.size(), run_shard);
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        run_shard(s);
      }
    }
    return core::BatchResult{inserted.load(), deleted.load(), skipped.load()};
  }

  // Applies a pre-routed slice (every update's source must map to `shard`)
  // through that shard's protocol. Thread-safe across shards — this is the
  // batcher's drain entry point; concurrent calls for distinct shards
  // proceed fully in parallel.
  core::BatchResult ApplyShardBatch(int shard,
                                    const graph::UpdateList& updates) {
    return shards_[static_cast<std::size_t>(shard)]->ApplyBatch(updates);
  }

  // Advances the logical epoch on every shard (broadcast via ApplyBatch, so
  // each shard journals and applies the tick).
  void AdvanceTime(uint32_t new_epoch, util::ThreadPool* pool = nullptr) {
    ApplyBatch({graph::MakeAdvanceTime(new_epoch)}, pool);
  }

  // --- durability: per-shard base + WAL segments ---------------------------
  //
  // The sharded layout mirrors the routing: `dir`/MANIFEST records the
  // shard count, and shard s keeps its own base.snapshot + wal.log under
  // `dir`/shard-s. Each shard journals exactly the batch slices its store
  // applies (ApplyBatch routing, ApplyShardBatch, and the
  // UpdateBatcher's drains all funnel through the shard service), so
  // per-shard recovery replays per-shard apply order — the only order that
  // determines a vertex's state. Checkpoint() makes the compaction decision
  // for the WHOLE service (aggregate delta vs aggregate edges) so
  // canonicalization stays a service-wide point that differential
  // references can mirror.

  // Attaches `dir` (created if needed); writes the manifest and every
  // shard's initial base. Aggregated result (ok = all shards ok).
  CheckpointResult AttachWal(const std::string& dir,
                             WalPersistenceOptions options = {})
    requires CheckpointableStore<Store>
  {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    CheckpointResult total;
    if (!WriteShardedWalManifest(dir, NumShards())) {
      return total;
    }
    wal_dir_ = dir;
    persist_options_ = options;
    total.ok = true;
    total.compacted = true;
    for (int s = 0; s < NumShards(); ++s) {
      const CheckpointResult r =
          shards_[static_cast<std::size_t>(s)]->AttachWal(ShardWalDir(dir, s),
                                                          options);
      total.ok = total.ok && r.ok;
      total.bytes_written += r.bytes_written;
    }
    wal_attached_ = total.ok;
    return total;
  }

  // Incremental checkpoint of every shard; compacts all shards (or none)
  // based on the aggregate journaled delta vs the aggregate edge count.
  CheckpointResult Checkpoint()
    requires CheckpointableStore<Store>
  {
    CheckpointResult total;
    if (!wal_attached_) {
      return total;
    }
    uint64_t delta = 0;
    uint64_t live_edges = 0;
    bool any_wal_failed = false;
    for (const auto& shard : shards_) {
      delta += shard->WalUpdatesSinceBase();
      any_wal_failed = any_wal_failed || shard->WalFailed();
      live_edges += shard->Query(
          [](const Store& s) { return static_cast<uint64_t>(s.NumEdges()); });
    }
    // A failed shard journal means un-journaled applied batches; compacting
    // every shard rewrites the bases past the gap (the same self-repair the
    // unsharded Checkpoint's default policy performs).
    const bool compact =
        any_wal_failed ||
        static_cast<double>(delta) >
            persist_options_.compact_fraction *
                static_cast<double>(std::max<uint64_t>(live_edges, 1));
    total.ok = true;
    total.compacted = compact;
    for (auto& shard : shards_) {
      const CheckpointResult r = shard->Checkpoint(compact);
      total.ok = total.ok && r.ok;
      total.bytes_written += r.bytes_written;
      total.wal_seq += r.wal_seq;  // sum across shards (per-shard sequences)
    }
    return total;
  }

  // fsyncs every shard's WAL (the batcher's durable-flush hook).
  bool SyncWal() {
    bool ok = true;
    for (auto& shard : shards_) {
      ok = shard->SyncWal() && ok;
    }
    return ok;
  }

  bool WalAttached() const { return wal_attached_; }

  // Recovery hook: mark `dir` attached after the shards were recovered with
  // their WALs already adopted.
  void AdoptWalDir(const std::string& dir, WalPersistenceOptions options) {
    wal_dir_ = dir;
    persist_options_ = options;
    wal_attached_ = true;
  }

  // Sum of shard epochs.
  uint64_t Epoch() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->Epoch();
    }
    return total;
  }

  ShardedServiceStats Stats() const {
    ShardedServiceStats stats;
    stats.num_shards = NumShards();
    for (const auto& shard : shards_) {
      const ServiceStats s = shard->Stats();
      stats.epoch += s.epoch;
      stats.batches_applied += s.batches_applied;
      stats.batches_copied += s.batches_copied;
      stats.updates_applied += s.updates_applied;
      stats.drain_spins += s.drain_spins;
      stats.wal_records += s.wal_records;
      stats.wal_updates += s.wal_updates;
      stats.checkpoints += s.checkpoints;
      stats.compactions += s.compactions;
    }
    stats.queries_served = queries_.load(std::memory_order_relaxed);
    return stats;
  }

  core::StoreMemoryStats MemoryStats() const {
    core::StoreMemoryStats total;
    for (const auto& shard : shards_) {
      total += shard->MemoryStats();
    }
    return total;
  }

  std::string CheckInvariants() const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::string err = shards_[s]->CheckInvariants();
      if (!err.empty()) {
        return "shard " + std::to_string(s) + ": " + err;
      }
    }
    return {};
  }

  ShardService& Shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }

 private:
  std::vector<std::unique_ptr<ShardService>> shards_;
  util::ThreadPool* route_pool_;
  mutable std::atomic<uint64_t> queries_{0};

  // Persistence state (per-shard WALs live in the shard services).
  std::string wal_dir_;
  WalPersistenceOptions persist_options_;
  bool wal_attached_ = false;
};

// The BingoStore instantiation is compiled once in sharded_service.cc.
extern template class ShardedWalkServiceT<core::BingoStore>;

using ShardedWalkService = ShardedWalkServiceT<core::BingoStore>;

// Builds a BingoStore-backed sharded service over `edges`: shard s holds
// the out-edges of vertices with v % num_shards == s (one store each).
// `build_pool` parallelizes store construction; `update_pool` becomes the
// default cross-shard routing pool for ApplyBatch.
std::unique_ptr<ShardedWalkService> MakeShardedWalkService(
    const graph::WeightedEdgeList& edges, graph::VertexId num_vertices,
    int num_shards, core::BingoConfig config = {},
    util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr);

// Rebuilds a sharded service from a durability directory written by
// AttachWal/Checkpoint: reads the manifest, recovers every shard from its
// base + WAL (torn tails dropped, journaling re-armed), and reassembles the
// composite. The recovered service walks bit-identically to one that never
// crashed and had applied exactly the recovered per-shard batches. Returns
// nullptr if the manifest or any shard fails to recover; `report`
// aggregates the per-shard recoveries.
std::unique_ptr<ShardedWalkService> RecoverShardedWalkService(
    const std::string& dir, core::BingoConfig config = {},
    graph::VertexId num_vertices = 0, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr, WalPersistenceOptions options = {},
    RecoveryReport* report = nullptr);

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_SHARDED_SERVICE_H_
