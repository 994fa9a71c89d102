// WalkService: an epoch-versioned concurrent front-end over any store.
//
// The paper's headline property is O(1) biased sampling that stays fast
// while the graph mutates; this subsystem supplies the serving-side
// concurrency story: many walk queries run concurrently with batched
// updates, and no query ever observes a half-rebuilt vertex sampler.
//
// Design — left/right replication with snapshot epochs:
//
//   * The service owns TWO replicas of the store, built identically.
//     Queries Acquire() the front replica; ApplyBatch mutates the back
//     replica, publishes it (epoch++) and returns. The old front, now the
//     back, still lacks that batch: the next write replays it there first
//     (the catch-up), after the readers that pinned it have drained, so
//     the pair converges. A replica is only mutated after its readers have
//     drained, so snapshots are immutable for their lifetime.
//   * Readers never wait for an in-flight store mutation: Acquire is one
//     brief critical section on the front mutex (shared with the writer's
//     O(1) pointer flip, never held across a store mutation) plus a
//     reader-count increment; the walk itself runs lock-free on the frozen
//     replica.
//   * Snapshot::Consistent() exposes a seqlock-style validation: the
//     replica's version counter is even and unchanged since Acquire, i.e.
//     the writer respected the drain protocol. Tests assert it after every
//     concurrent query.
//
// Update latency is one store ApplyBatch plus the catch-up of the previous
// batch, which rarely waits: by the next write the readers of the old
// front have usually finished. Every batch is still applied to both
// replicas (2x the apply work) and memory is 2x one store — the cost of
// never blocking readers. Only CheckInvariants and base writes need the
// replicas equal; they catch up first. This mirrors snapshot semantics of
// core/snapshot.h (sampling structures are a pure function of the edge
// multiset, Theorem 4.1): both replicas are rebuilt from the same edges and
// replay the same update stream, so they stay bit-identical without copying
// derived state between them.
//
// Caveat: a thread must not call ApplyBatch — nor CheckInvariants or
// MemoryStats, which take the writer lock — while holding one of its own
// live Snapshots: the writer waits for that reader to drain and would
// deadlock (directly, or via the lock a concurrent writer already holds).

#ifndef BINGO_SRC_WALK_SERVICE_H_
#define BINGO_SRC_WALK_SERVICE_H_

#include <atomic>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/core/snapshot.h"
#include "src/core/store_types.h"
#include "src/core/wal.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/types.h"
#include "src/util/fileio.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct ServiceStats {
  uint64_t epoch = 0;            // snapshots published since construction
  uint64_t queries_served = 0;   // snapshots handed out
  uint64_t batches_applied = 0;
  uint64_t updates_applied = 0;  // individual update requests ingested
  uint64_t drain_spins = 0;      // writer yields spent waiting for readers
  uint64_t wal_records = 0;      // batches journaled to the WAL
  uint64_t wal_updates = 0;      // updates journaled to the WAL
  uint64_t checkpoints = 0;      // Checkpoint() calls that succeeded
  uint64_t compactions = 0;      // checkpoints that rewrote the base
};

// Stores that can participate in WAL-backed checkpointing: their durable
// state is the graph + config (Theorem 4.1 — sampling structures are a pure
// function of the adjacency), and they rebuild deterministically from a
// bulk-loaded graph.
template <typename S>
concept CheckpointableStore =
    requires(const S& s) {
      { s.Graph() } -> std::convertible_to<const graph::DynamicGraph&>;
      { s.Config() } -> std::convertible_to<const core::BingoConfig&>;
      { s.NumEdges() } -> std::convertible_to<uint64_t>;
    } &&
    std::constructible_from<S, graph::DynamicGraph, core::BingoConfig,
                            util::ThreadPool*>;

// Durability knobs for the WAL-backed checkpointing of a service.
struct WalPersistenceOptions {
  // fsync the WAL after every journaled batch: ApplyBatch returns only once
  // the batch is on disk. Off, durability is deferred to Checkpoint()/
  // SyncWal() (group commit) — a crash can lose batches since the last sync.
  bool fsync_on_commit = false;
  // Compact (rewrite the base, O(E)) once the journaled delta exceeds this
  // fraction of the store's live edge count; below it a checkpoint is just
  // a WAL sync, O(delta) bytes.
  double compact_fraction = 0.5;
};

// Outcome of one AttachWal/Checkpoint call.
struct CheckpointResult {
  bool ok = false;
  bool compacted = false;       // rewrote the base (O(E)); else O(delta)
  uint64_t bytes_written = 0;   // bytes this call persisted
  uint64_t wal_seq = 0;         // the durable state covers updates <= seq
};

// Outcome of RecoverWalkService / RecoverShardedWalkService.
struct RecoveryReport {
  bool ok = false;
  uint64_t base_edges = 0;            // edges loaded from base snapshot(s)
  uint64_t base_wal_seq = 0;          // sum of base header wal_seq values
  uint64_t wal_records_replayed = 0;  // complete records applied
  uint64_t wal_updates_replayed = 0;
  bool wal_tail_truncated = false;    // a torn tail was dropped (crash mid-append)
  graph::VertexId num_vertices = 0;
};

template <WalkStore Store>
class WalkServiceT {
 public:
  // `factory` is invoked twice; each call must produce an identical store
  // (the store is a pure function of its inputs — Theorem 4.1).
  explicit WalkServiceT(const std::function<std::unique_ptr<Store>()>& factory,
                        util::ThreadPool* update_pool = nullptr)
      : update_pool_(update_pool) {
    replicas_[0].store = factory();
    replicas_[1].store = factory();
  }

  WalkServiceT(const WalkServiceT&) = delete;
  WalkServiceT& operator=(const WalkServiceT&) = delete;

  // An immutable view of one published epoch. Movable, not copyable; the
  // replica it pins cannot be mutated until it is destroyed.
  class Snapshot {
   public:
    Snapshot(Snapshot&& other) noexcept
        : store_(other.store_),
          readers_(other.readers_),
          version_(other.version_),
          version_at_acquire_(other.version_at_acquire_),
          epoch_(other.epoch_) {
      other.readers_ = nullptr;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;
    ~Snapshot() {
      if (readers_ != nullptr) {
        // Release: our reads of the store happen-before the writer's
        // mutation (it acquires the counter before touching the replica).
        readers_->fetch_sub(1, std::memory_order_release);
      }
    }

    const Store& store() const { return *store_; }
    uint64_t epoch() const { return epoch_; }

    // True while the pinned replica has not been mutated since Acquire.
    // Under the service protocol this holds for the snapshot's whole
    // lifetime; a false return means the writer violated the drain.
    bool Consistent() const {
      const uint64_t v = version_->load(std::memory_order_acquire);
      return v == version_at_acquire_ && (v % 2) == 0;
    }

   private:
    friend class WalkServiceT;
    Snapshot(const Store* store, std::atomic<int64_t>* readers,
             const std::atomic<uint64_t>* version, uint64_t version_at_acquire,
             uint64_t epoch)
        : store_(store),
          readers_(readers),
          version_(version),
          version_at_acquire_(version_at_acquire),
          epoch_(epoch) {}

    const Store* store_;
    std::atomic<int64_t>* readers_;
    const std::atomic<uint64_t>* version_;
    uint64_t version_at_acquire_;
    uint64_t epoch_;
  };

  Snapshot Acquire() const BINGO_EXCLUDES(front_mutex_) {
    util::MutexLock lock(front_mutex_);
    const Replica& r = replicas_[front_];
    r.readers.fetch_add(1, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
    return Snapshot(r.store.get(), &r.readers, &r.version,
                    r.version.load(std::memory_order_relaxed),
                    epoch_.load(std::memory_order_relaxed));
  }

  uint64_t Epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Runs `fn(const Store&)` on a frozen snapshot and returns its result.
  template <typename Fn>
  auto Query(Fn&& fn) const {
    const Snapshot snap = Acquire();
    return std::forward<Fn>(fn)(snap.store());
  }

  // Convenience walk queries (one snapshot per call).
  WalkResult DeepWalk(const WalkConfig& cfg,
                      util::ThreadPool* pool = nullptr) const {
    return Query([&](const Store& s) { return RunDeepWalk(s, cfg, pool); });
  }
  WalkResult Ppr(const WalkConfig& cfg, double stop_probability = 1.0 / 80.0,
                 util::ThreadPool* pool = nullptr) const {
    return Query(
        [&](const Store& s) { return RunPpr(s, cfg, stop_probability, pool); });
  }
  WalkResult Node2vec(const WalkConfig& cfg, const Node2vecParams& params = {},
                      util::ThreadPool* pool = nullptr) const
    requires AdjacencyStore<Store>
  {
    return Query(
        [&](const Store& s) { return RunNode2vec(s, cfg, params, pool); });
  }

  // Applies one update batch: catches the back replica up with the
  // previous batch, applies this one there, publishes it (epoch++) and
  // returns; the old front gets this batch at the next catch-up. Writers
  // are serialized; readers never wait. With a WAL attached the batch is
  // journaled BEFORE either replica is touched (write-ahead), so recovery
  // never misses an applied batch; a journaling failure poisons the WAL
  // (surfaced by CheckInvariants) and the next Checkpoint() repairs
  // durability by compacting.
  core::BatchResult ApplyBatch(const graph::UpdateList& updates)
      BINGO_EXCLUDES(update_mutex_, front_mutex_) {
    util::MutexLock wlock(update_mutex_);
    replicas_as_built_ = false;
    if (wal_ != nullptr) {
      if (wal_->Append(updates)) {
        wal_records_.fetch_add(1, std::memory_order_relaxed);
        wal_updates_.fetch_add(updates.size(), std::memory_order_relaxed);
        wal_updates_since_base_.fetch_add(updates.size(),
                                          std::memory_order_relaxed);
      } else {
        wal_failed_.store(true, std::memory_order_relaxed);
      }
    }
    CatchUpLocked();
    const int back = BackLocked();
    const core::BatchResult result = MutateReplica(replicas_[back], updates);
    PublishLocked(back);
    replay_.emplace(Replay{updates, result});
    batches_.fetch_add(1, std::memory_order_relaxed);
    updates_count_.fetch_add(updates.size(), std::memory_order_relaxed);
    return result;
  }

  // Advances the temporal-decay logical epoch as an ordinary one-update
  // batch, so the tick is journaled, applied to both replicas, and replayed
  // on recovery like any other mutation.
  void AdvanceTime(uint32_t new_epoch) {
    ApplyBatch({graph::MakeAdvanceTime(new_epoch)});
  }

  // --- durability: WAL-backed incremental checkpointing --------------------
  //
  // AttachWal(dir) makes `dir` the service's durability directory: it
  // writes a full base snapshot (`base.snapshot`), starts a fresh WAL
  // segment (`wal.log`), and journals every subsequent ApplyBatch before it
  // is applied. Checkpoint() is then incremental — a WAL fsync, O(delta)
  // bytes — until the journaled delta exceeds compact_fraction of the live
  // edge count, at which point it compacts: a new base is written
  // atomically and the WAL is reset (also atomically; a crash between the
  // two renames recovers correctly because replay skips records the base
  // already covers).
  //
  // Bit-identical recovery: writing a base also CANONICALIZES the live
  // replicas — both are rebuilt from the canonical edge list the base
  // persists, through the same publish protocol as ApplyBatch (queries keep
  // running, epoch advances). From then on the live state is, bit for bit,
  // `bulk-load(base) + replay(journaled batches)` — exactly what
  // RecoverWalkService reconstructs — so a recovered service walks
  // identically to one that never crashed, and keeps doing so under further
  // updates. (Canonicalization preserves every per-vertex distribution and
  // the duplicate-deletion order; only the internal adjacency/sampler
  // layout is normalized, the same normalization recovery performs.)
  //
  // The rebuild is skipped when the replicas already ARE that bulk load:
  // no batch was applied since they were built or last rebuilt, and each
  // replica's graph is the untouched bulk load of its own canonical edge
  // list (DynamicGraph::IsCanonical). The store is then Store(graph,
  // config) for exactly the graph recovery loads (Theorem 4.1), so the
  // rebuild could only reproduce it. This is the common AttachWal case —
  // a freshly bulk-loaded service — and it costs no second store copy and
  // no epoch. After updates (and so on every compaction that follows
  // them) the rebuild runs as described.
  //
  // The ApplyBatch caveat applies: never call these while holding a live
  // Snapshot of this service.

  // Attaches `dir` (created if needed) and writes the initial full base.
  CheckpointResult AttachWal(const std::string& dir,
                             WalPersistenceOptions options = {})
    requires CheckpointableStore<Store>
  {
    util::MutexLock wlock(update_mutex_);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    wal_dir_ = dir;
    persist_options_ = options;
    wal_.reset();
    // If `dir` already holds a WAL segment (re-attach over an old
    // durability dir), stamp the base past its last sequence: should we
    // crash after the base rename but before the WAL reset, recovery must
    // skip every stale record — the base subsumes this service's state.
    uint64_t base_seq = 0;
    const core::WalReplayResult stale =
        core::ReplayWal(dir + "/wal.log", UINT64_MAX, nullptr);
    if (stale.header_ok) {
      base_seq = stale.last_seq;
    }
    CheckpointResult result = WriteBaseLocked(base_seq);
    if (result.ok) {
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

  // Checkpoints into the attached directory. `force_compact` overrides the
  // delta-fraction policy (the sharded service uses it to make compaction a
  // whole-service decision).
  CheckpointResult Checkpoint(
      std::optional<bool> force_compact = std::nullopt)
    requires CheckpointableStore<Store>
  {
    util::MutexLock wlock(update_mutex_);
    CheckpointResult result;
    if (wal_ == nullptr) {
      return result;  // not attached
    }
    const uint64_t delta =
        wal_updates_since_base_.load(std::memory_order_relaxed);
    const uint64_t live_edges = replicas_[1 - BackLocked()].store->NumEdges();
    const bool compact = force_compact.value_or(
        wal_failed_.load(std::memory_order_relaxed) ||
        static_cast<double>(delta) >
            persist_options_.compact_fraction *
                static_cast<double>(std::max<uint64_t>(live_edges, 1)));
    if (compact) {
      result = WriteBaseLocked(wal_->LastSeq());
      if (result.ok) {
        checkpoints_.fetch_add(1, std::memory_order_relaxed);
        compactions_.fetch_add(1, std::memory_order_relaxed);
      }
      return result;
    }
    if (!wal_->Sync()) {
      wal_failed_.store(true, std::memory_order_relaxed);
      return result;
    }
    result.ok = true;
    result.compacted = false;
    result.bytes_written = wal_->BytesWritten() - wal_bytes_at_last_checkpoint_;
    result.wal_seq = wal_->LastSeq();
    wal_bytes_at_last_checkpoint_ = wal_->BytesWritten();
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  // fsyncs the attached WAL (true when none is attached).
  bool SyncWal() BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock wlock(update_mutex_);
    if (wal_ == nullptr) {
      return true;
    }
    if (!wal_->Sync()) {
      wal_failed_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  bool WalAttached() const BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock wlock(update_mutex_);
    return wal_ != nullptr;
  }

  // Updates journaled since the current base (the incremental delta).
  uint64_t WalUpdatesSinceBase() const {
    return wal_updates_since_base_.load(std::memory_order_relaxed);
  }

  // True after an Append/Sync failure: the journal is behind the live
  // store. The next Checkpoint() repairs durability by compacting.
  bool WalFailed() const {
    return wal_failed_.load(std::memory_order_relaxed);
  }

  // Recovery hook: adopt an already-positioned WAL writer for `dir` after
  // the caller rebuilt this service from dir's base + replayed its WAL.
  // Journaling resumes with the next ApplyBatch.
  void AdoptWal(std::unique_ptr<core::WalWriter> wal, const std::string& dir,
                WalPersistenceOptions options, uint64_t updates_since_base)
      BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock wlock(update_mutex_);
    wal_ = std::move(wal);
    wal_dir_ = dir;
    persist_options_ = options;
    wal_updates_since_base_.store(updates_since_base,
                                  std::memory_order_relaxed);
    wal_bytes_at_last_checkpoint_ = wal_ != nullptr ? wal_->BytesWritten() : 0;
  }

  ServiceStats Stats() const {
    ServiceStats stats;
    stats.epoch = Epoch();
    stats.queries_served = queries_.load(std::memory_order_relaxed);
    stats.batches_applied = batches_.load(std::memory_order_relaxed);
    stats.updates_applied = updates_count_.load(std::memory_order_relaxed);
    stats.drain_spins = drain_spins_.load(std::memory_order_relaxed);
    stats.wal_records = wal_records_.load(std::memory_order_relaxed);
    stats.wal_updates = wal_updates_.load(std::memory_order_relaxed);
    stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    stats.compactions = compactions_.load(std::memory_order_relaxed);
    return stats;
  }

  // Both replicas as they stand: the back one may still lack the last
  // batch.
  core::StoreMemoryStats MemoryStats() const BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock lock(update_mutex_);
    core::StoreMemoryStats total = replicas_[0].store->MemoryStats();
    total += replicas_[1].store->MemoryStats();
    return total;
  }

  // Catches the back replica up, then audits both replicas and their
  // agreement. Takes the writer lock, so it must not race updates; queries
  // may continue.
  std::string CheckInvariants() BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock lock(update_mutex_);
    CatchUpLocked();
    for (int i = 0; i < 2; ++i) {
      const std::string err = replicas_[i].store->CheckInvariants();
      if (!err.empty()) {
        return "replica " + std::to_string(i) + ": " + err;
      }
    }
    if (replicas_diverged_.load(std::memory_order_relaxed)) {
      return "replicas diverged: a batch replayed with a different outcome";
    }
    if (wal_failed_.load(std::memory_order_relaxed)) {
      return "wal append/sync failed: journal is behind the live store";
    }
    if (replicas_[0].store->NumVertices() != replicas_[1].store->NumVertices()) {
      return "replica vertex counts diverged";
    }
    if constexpr (requires { replicas_[0].store->NumEdges(); }) {
      if (replicas_[0].store->NumEdges() != replicas_[1].store->NumEdges()) {
        return "replica edge counts diverged";
      }
    }
    return {};
  }

 private:
  struct Replica {
    std::unique_ptr<Store> store;
    // Snapshots currently pinning this replica.
    mutable std::atomic<int64_t> readers{0};
    // Seqlock-style: odd while the writer mutates, bumped twice per batch.
    std::atomic<uint64_t> version{0};
  };

  // Writers are serialized by update_mutex_; the replica itself is guarded
  // by the drain/seqlock protocol (readers pin it via Snapshot), which a
  // mutex annotation cannot express — the seqlock tests and TSan cover it.
  core::BatchResult MutateReplica(Replica& r, const graph::UpdateList& updates)
      BINGO_REQUIRES(update_mutex_) {
    // Drain: the release-decrement in ~Snapshot pairs with this acquire
    // load, ordering every reader access before our writes.
    while (r.readers.load(std::memory_order_acquire) != 0) {
      drain_spins_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    r.version.fetch_add(1, std::memory_order_release);  // odd: mutating
    const core::BatchResult result = r.store->ApplyBatch(updates, update_pool_);
    r.version.fetch_add(1, std::memory_order_release);  // even: stable
    return result;
  }

  // Index of the back replica: the one queries do not Acquire.
  int BackLocked() const BINGO_REQUIRES(update_mutex_) {
    util::MutexLock lock(front_mutex_);
    return 1 - front_;
  }

  // Makes the back replica the front: new snapshots see its epoch.
  void PublishLocked(int back) BINGO_REQUIRES(update_mutex_) {
    util::MutexLock lock(front_mutex_);
    front_ = back;
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  // Replays the last published batch on the back replica (waiting for the
  // readers that still pin it), so both replicas hold the same state, and
  // frees the batch.
  void CatchUpLocked() BINGO_REQUIRES(update_mutex_) {
    if (!replay_) {
      return;
    }
    const core::BatchResult replayed =
        MutateReplica(replicas_[BackLocked()], replay_->updates);
    if (!(replayed == replay_->result)) {
      // Replaying the identical batch on an identical replica must produce
      // the identical outcome; anything else means the pair diverged.
      replicas_diverged_.store(true, std::memory_order_relaxed);
    }
    replay_.reset();
  }

  // Replaces one replica's store with a canonical rebuild, under the same
  // drain/seqlock protocol as MutateReplica.
  void RebuildReplica(Replica& r, const graph::WeightedEdgeList& edges)
    requires CheckpointableStore<Store>
  {
    update_mutex_.AssertHeld();
    while (r.readers.load(std::memory_order_acquire) != 0) {
      drain_spins_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    r.version.fetch_add(1, std::memory_order_release);  // odd: mutating
    const graph::VertexId n = r.store->NumVertices();
    const core::BingoConfig config = r.store->Config();
    r.store = std::make_unique<Store>(graph::DynamicGraph::FromEdges(n, edges),
                                      config, update_pool_);
    r.version.fetch_add(1, std::memory_order_release);  // even: stable
  }

  // Writes dir/base.snapshot covering wal_seq and starts a fresh WAL
  // segment; catches the replicas up and canonicalizes them first (unless
  // they already are canonical, see AttachWal) so live state == what
  // recovery rebuilds.
  // Caller holds update_mutex_ and owns the checkpoint/compaction counters.
  CheckpointResult WriteBaseLocked(uint64_t wal_seq)
    requires CheckpointableStore<Store>
  {
    update_mutex_.AssertHeld();
    CheckpointResult result;
    result.compacted = true;
    result.wal_seq = wal_seq;

    CatchUpLocked();
    const int back = BackLocked();
    // One canonical pass: the list both rebuilds load and the base persists.
    const graph::WeightedEdgeList edges =
        core::CanonicalEdgeList(replicas_[1 - back].store->Graph());
    if (!replicas_as_built_ || !replicas_[0].store->Graph().IsCanonical() ||
        !replicas_[1].store->Graph().IsCanonical()) {
      // Canonicalize: both replicas become the bulk-load of the canonical
      // edge list (publish protocol, back first).
      RebuildReplica(replicas_[back], edges);
      PublishLocked(back);
      RebuildReplica(replicas_[1 - back], edges);
      replicas_as_built_ = true;
    }

    uint64_t base_bytes = 0;
    const Store& store = *replicas_[0].store;
    if (!core::SaveEdgeSnapshot(edges, store.NumVertices(), store.Config(),
                                wal_dir_ + "/base.snapshot", wal_seq,
                                &base_bytes)) {
      return result;
    }
    // Fresh WAL segment, crash-safe: the new file is complete (and fsync'd)
    // before it is renamed over wal.log. A crash between the base rename
    // and this one is benign — replay skips records with seq <= wal_seq.
    const std::string tmp = wal_dir_ + "/wal.log.new";
    auto wal = core::WalWriter::Create(
        tmp, wal_seq, core::WalOptions{persist_options_.fsync_on_commit});
    if (wal == nullptr) {
      return result;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, wal_dir_ + "/wal.log", ec);
    if (ec) {
      return result;
    }
    util::FsyncDirectory(wal_dir_);
    wal_ = std::move(wal);
    wal_failed_.store(false, std::memory_order_relaxed);
    wal_updates_since_base_.store(0, std::memory_order_relaxed);
    wal_bytes_at_last_checkpoint_ = wal_->BytesWritten();
    result.ok = true;
    result.bytes_written = base_bytes + wal_->BytesWritten();
    return result;
  }

  Replica replicas_[2];
  mutable util::Mutex front_mutex_;  // guards front_ flips and Acquire
  int front_ BINGO_GUARDED_BY(front_mutex_) = 0;
  std::atomic<uint64_t> epoch_{0};
  mutable util::Mutex update_mutex_;  // serializes writers
  // No batch applied since the replicas were built or last rebuilt: with
  // canonical graphs, they equal what a base write would rebuild.
  bool replicas_as_built_ BINGO_GUARDED_BY(update_mutex_) = true;
  util::ThreadPool* update_pool_;
  mutable std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> updates_count_{0};
  std::atomic<uint64_t> drain_spins_{0};
  std::atomic<bool> replicas_diverged_{false};
  // The last published batch and its outcome: applied to the front
  // replica, not yet to the back one (see CatchUpLocked).
  struct Replay {
    graph::UpdateList updates;
    core::BatchResult result;
  };
  std::optional<Replay> replay_ BINGO_GUARDED_BY(update_mutex_);

  // Persistence state (update_mutex_ guards it; counters are atomic so
  // Stats() stays lock-free).
  std::unique_ptr<core::WalWriter> wal_ BINGO_GUARDED_BY(update_mutex_);
  std::string wal_dir_ BINGO_GUARDED_BY(update_mutex_);
  WalPersistenceOptions persist_options_ BINGO_GUARDED_BY(update_mutex_);
  uint64_t wal_bytes_at_last_checkpoint_ BINGO_GUARDED_BY(update_mutex_) = 0;
  std::atomic<uint64_t> wal_updates_since_base_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_updates_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<bool> wal_failed_{false};
};

// The BingoStore instantiation is compiled once in service.cc.
extern template class WalkServiceT<core::BingoStore>;

using WalkService = WalkServiceT<core::BingoStore>;

// Builds a BingoStore-backed service over `edges` (both replicas built with
// `build_pool`; batches applied with `update_pool`).
std::unique_ptr<WalkService> MakeWalkService(
    const graph::WeightedEdgeList& edges, graph::VertexId num_vertices,
    core::BingoConfig config = {}, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr);

// Rebuilds a BingoStore-backed service from a durability directory written
// by AttachWal/Checkpoint: bulk-loads `dir`/base.snapshot, replays the
// longest valid prefix of `dir`/wal.log past the base's sequence number,
// drops any torn tail, and re-arms journaling so the recovered service
// checkpoints incrementally from where the crashed one stopped. The result
// is bit-identical — walks and all — to a service that never crashed and
// had applied exactly the recovered batches. Returns nullptr when the base
// is missing/corrupt, the WAL header is corrupt, or `config` does not match
// the base's fingerprint. `num_vertices` 0 = the base header's count.
// `batch_hook`, when set, observes every replayed batch right after the
// service applied it (in WAL order, with its sequence number). The walk
// index layer uses this to re-run corpus repairs against the exact store
// state each batch produced — the step that makes a recovered corpus
// bit-identical to one that never crashed.
using RecoveryBatchHook =
    std::function<void(uint64_t seq, const graph::UpdateList& batch,
                       WalkService& service)>;

std::unique_ptr<WalkService> RecoverWalkService(
    const std::string& dir, core::BingoConfig config = {},
    graph::VertexId num_vertices = 0, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr, WalPersistenceOptions options = {},
    RecoveryReport* report = nullptr, RecoveryBatchHook batch_hook = {});

// ------------------------------------------------------- stress driving --
//
// Shared by tests/walk_service_test.cc and `bingo_cli serve-bench`: N query
// threads issue walk queries against snapshots while the calling thread
// streams update batches through ApplyBatch.

struct ServiceStressOptions {
  int query_threads = 4;
  uint64_t batch_size = 1000;       // updates per ApplyBatch
  uint64_t walkers_per_query = 256;
  uint32_t walk_length = 10;
  uint64_t seed = 42;
};

struct ServiceStressReport {
  uint64_t queries = 0;
  uint64_t walk_steps = 0;               // neighbor samples served
  uint64_t inconsistent_snapshots = 0;   // protocol violations (must be 0)
  uint64_t min_epoch_observed = 0;
  uint64_t max_epoch_observed = 0;
  uint64_t batches = 0;
  double wall_seconds = 0.0;
  double update_seconds_total = 0.0;
  double update_seconds_max = 0.0;
  std::vector<double> batch_seconds;  // per-batch update latency, in order

  double SamplesPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(walk_steps) / wall_seconds
                              : 0.0;
  }
  double MeanUpdateSeconds() const {
    return batches > 0 ? update_seconds_total / static_cast<double>(batches)
                       : 0.0;
  }
  // Latency percentile over the recorded batches (q in [0, 1]).
  double UpdateSecondsQuantile(double q) const;
};

ServiceStressReport RunWalkServiceStress(WalkService& service,
                                         const graph::UpdateList& updates,
                                         const ServiceStressOptions& options);

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_SERVICE_H_
