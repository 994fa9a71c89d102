// WalkService: an epoch-versioned concurrent front-end over any store.
//
// The paper's headline property is O(1) biased sampling that stays fast
// while the graph mutates; this subsystem supplies the serving-side
// concurrency story: many walk queries run concurrently with batched
// updates, and no query ever observes a half-rebuilt vertex sampler.
//
// Design — one store with snapshot epochs, copied only while read:
//
//   * The service owns ONE store and, after each batch, publishes a view of
//     it (epoch++). A Snapshot pins one published version: a read-only view
//     of the store that keeps reading exactly that version, whatever is
//     applied after it. Acquire is one brief critical section on the front
//     mutex plus a reader count; the walk runs lock-free on the frozen view.
//   * A batch that no snapshot reads is applied in place. Under the front
//     mutex the writer checks that the published version has no readers, no
//     older view is pinned and no Acquire is waiting; then it drops its own
//     view, so the store has none and changes the touched vertices in place
//     (core/bingo_store.h; O(K) per update, §4.2), and publishes the result
//     before it releases the mutex.
//   * Any other batch builds a new version from private copies of the
//     vertices it touches (Bingo updates are vertex-local, §4.2, and a
//     vertex's sampler is a pure function of its adjacency, Theorem 4.1),
//     with the front mutex released, so the vertices it does not touch are
//     shared with every earlier version. What a version supersedes (the old
//     copies of touched vertices, and the table pages that held them) is
//     freed by epoch-based reclamation once the last snapshot of an older
//     version is released — by the thread that releases it, or at publish
//     when none is pinned (util/reclaimer.h).
//   * Who waits for whom: the writer never waits for a reader, and
//     releasing a snapshot never waits. An Acquire waits for at most one
//     batch, an in-place apply that started because no snapshot was alive;
//     while it waits, the next batch takes the copy path. It never waits
//     for a copy.
//   * Snapshot::Consistent() checks that protocol: nothing the pinned view
//     reads has been freed. Tests assert it after every concurrent query.
//
// Update latency is one store ApplyBatch, in place or over copies of the
// touched vertices, then the publish. Memory is one store plus the versions
// pinned snapshots still read. A snapshot also keeps its store alive, so it
// may outlive a base write that replaces the store (see AttachWal) or the
// service itself.
//
// Caveat: CheckInvariants, MemoryStats and the durability calls take the
// writer lock; they never wait for readers.

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
#include "src/util/memory_pool.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct ServiceStats {
  uint64_t epoch = 0;            // snapshots published since construction
  uint64_t queries_served = 0;   // snapshots handed out
  uint64_t batches_applied = 0;
  uint64_t updates_applied = 0;  // individual update requests ingested
  // Batches applied over copies of the vertices they touch, because a
  // snapshot was alive or being acquired; the rest were applied in place.
  uint64_t batches_copied = 0;
  // Writer yields spent waiting for readers: always 0, since the writer
  // never waits for one (kept so stats readers that chart it keep working).
  uint64_t drain_spins = 0;
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

template <VersionedStore Store>
class WalkServiceT {
 public:
  explicit WalkServiceT(std::unique_ptr<Store> store,
                        util::ThreadPool* update_pool = nullptr)
      : store_(std::move(store)),
        front_(std::make_shared<Version>(store_, 0)),
        update_pool_(update_pool) {}

  WalkServiceT(const WalkServiceT&) = delete;
  WalkServiceT& operator=(const WalkServiceT&) = delete;

 private:
  // One published epoch: a view of the store as that ApplyBatch left it.
  // The view is destroyed before the store reference it keeps alive.
  struct Version {
    Version(std::shared_ptr<Store> s, uint64_t e)
        : store(std::move(s)), view(store->View()), epoch(e) {}
    std::shared_ptr<Store> store;
    // Dropped by a writer that applies the next batch in place, which it
    // does only while no snapshot reads this version.
    std::unique_ptr<const Store> view;
    uint64_t epoch;
    // Live snapshots of this version: added under front_mutex_, released
    // with release order once a snapshot is done reading.
    mutable std::atomic<uint64_t> readers{0};
  };

 public:
  // An immutable view of one published epoch. Movable, not copyable.
  class Snapshot {
   public:
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;
    ~Snapshot() {
      if (version_ != nullptr) {
        version_->readers.fetch_sub(1, std::memory_order_release);
      }
    }

    const Store& store() const { return *version_->view; }
    uint64_t epoch() const { return version_->epoch; }

    // True while nothing the pinned version reads has been reclaimed. Under
    // the service protocol this holds for the snapshot's whole lifetime; a
    // false return means a version was freed while still pinned.
    bool Consistent() const { return version_->view->Intact(); }

   private:
    friend class WalkServiceT;
    // Taken under front_mutex_, which orders the count for the writer.
    explicit Snapshot(std::shared_ptr<const Version> version)
        : version_(std::move(version)) {
      version_->readers.fetch_add(1, std::memory_order_relaxed);
    }

    std::shared_ptr<const Version> version_;
  };

  // Waits only while an in-place apply holds the front mutex (see the
  // design notes above).
  Snapshot Acquire() const BINGO_EXCLUDES(front_mutex_) {
    // Announced before the lock: a batch that starts while this waits takes
    // the copy path instead of making it wait again.
    acquiring_.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lock(front_mutex_);
    acquiring_.fetch_sub(1, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
    return Snapshot(front_);
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

  // Applies one update batch, publishes the new version (epoch++) and
  // returns. Writers are serialized, and the writer never waits for a
  // reader. When no snapshot is alive or being acquired, the batch is
  // applied in place while the front mutex is held: an Acquire that
  // arrives meanwhile waits for this one apply and then sees its result.
  // Otherwise the batch copies the vertices it touches, with the front
  // mutex released, and no Acquire waits for it. With a WAL attached the
  // batch is journaled BEFORE the store is touched (write-ahead), so
  // recovery never misses an applied batch; a journaling failure poisons
  // the WAL (surfaced by CheckInvariants) and the next Checkpoint() repairs
  // durability by compacting. `pool` (default: the update pool) runs the
  // per-vertex copies and updates; recovery replays on its build pool.
  core::BatchResult ApplyBatch(const graph::UpdateList& updates,
                               util::ThreadPool* pool = nullptr)
      BINGO_EXCLUDES(update_mutex_, front_mutex_) {
    util::MutexLock wlock(update_mutex_);
    store_as_built_ = false;
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
    if (pool == nullptr) {
      pool = update_pool_;
    }
    core::BatchResult result;
    if (!ApplyInPlaceLocked(updates, pool, result)) {
      result = store_->ApplyBatch(updates, pool);
      PublishLocked();
      batches_copied_.fetch_add(1, std::memory_order_relaxed);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    updates_count_.fetch_add(updates.size(), std::memory_order_relaxed);
    return result;
  }

  // Advances the temporal-decay logical epoch as an ordinary one-update
  // batch, so the tick is journaled, applied, and replayed on recovery like
  // any other mutation.
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
  // store — it is replaced by the bulk load of the canonical edge list the
  // base persists, published like an ApplyBatch (queries keep running on
  // their snapshots of the old store, the epoch advances). From then on the
  // live state is, bit for bit, `bulk-load(base) + replay(journaled
  // batches)` — exactly what RecoverWalkService reconstructs — so a
  // recovered service walks identically to one that never crashed, and
  // keeps doing so under further updates. (Canonicalization preserves every
  // per-vertex distribution and the duplicate-deletion order; only the
  // internal adjacency/sampler layout is normalized, the same normalization
  // recovery performs.)
  //
  // The rebuild is skipped when the store already IS that bulk load: no
  // batch was applied since it was built or last rebuilt, and its graph is
  // the untouched bulk load of its own canonical edge list
  // (DynamicGraph::IsCanonical). The store is then Store(graph, config) for
  // exactly the graph recovery loads (Theorem 4.1), so the rebuild could
  // only reproduce it. This is the common AttachWal case — a freshly
  // bulk-loaded service — and it costs no second store and no epoch. After
  // updates (and so on every compaction that follows them) the rebuild
  // runs as described.

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
    const uint64_t live_edges = store_->NumEdges();
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
    stats.batches_copied = batches_copied_.load(std::memory_order_relaxed);
    stats.updates_applied = updates_count_.load(std::memory_order_relaxed);
    stats.wal_records = wal_records_.load(std::memory_order_relaxed);
    stats.wal_updates = wal_updates_.load(std::memory_order_relaxed);
    stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    stats.compactions = compactions_.load(std::memory_order_relaxed);
    return stats;
  }

  // The live store, including what superseded versions still hold for
  // pinned snapshots (retired_bytes).
  core::StoreMemoryStats MemoryStats() const BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock lock(update_mutex_);
    return store_->MemoryStats();
  }

  // Audits the live store and the journal. Takes the writer lock, so it
  // must not race updates; queries may continue.
  std::string CheckInvariants() const BINGO_EXCLUDES(update_mutex_) {
    util::MutexLock lock(update_mutex_);
    const std::string err = store_->CheckInvariants();
    if (!err.empty()) {
      return err;
    }
    if (wal_failed_.load(std::memory_order_relaxed)) {
      return "wal append/sync failed: journal is behind the live store";
    }
    return {};
  }

 private:
  // If no snapshot reads the published version or an older one, and no
  // Acquire is waiting, applies the batch in place and publishes it, all
  // under the front mutex, so no snapshot can be taken mid-apply; returns
  // false, having done nothing, otherwise.
  bool ApplyInPlaceLocked(const graph::UpdateList& updates,
                          util::ThreadPool* pool, core::BatchResult& result)
      BINGO_REQUIRES(update_mutex_) BINGO_EXCLUDES(front_mutex_) {
    std::shared_ptr<Version> old;  // released after the front mutex
    util::MutexLock lock(front_mutex_);
    // A snapshot's release (release order) happens before this acquire
    // load reads 0, so its reads precede the writes below; only Acquire
    // adds readers, under this mutex. The one view left must be the
    // front's own: views are taken only under update_mutex_, and older
    // ones can only go away meanwhile.
    if (front_->readers.load(std::memory_order_acquire) != 0 ||
        acquiring_.load(std::memory_order_relaxed) != 0 ||
        store_->Views() != 1) {
      return false;
    }
    front_->view.reset();
    result = store_->ApplyBatch(updates, pool);
    old = std::exchange(front_, NextVersionLocked());
    epoch_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::shared_ptr<Version> NextVersionLocked() const
      BINGO_REQUIRES(update_mutex_) {
    return std::make_shared<Version>(
        store_, epoch_.load(std::memory_order_relaxed) + 1);
  }

  // Makes the store's current version the front: new snapshots see it. The
  // old front is released outside the lock; if no snapshot still reads it,
  // that frees what the new version superseded.
  void PublishLocked() BINGO_REQUIRES(update_mutex_) {
    std::shared_ptr<Version> next = NextVersionLocked();
    std::shared_ptr<Version> old;
    {
      util::MutexLock lock(front_mutex_);
      old = std::exchange(front_, std::move(next));
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Writes dir/base.snapshot covering wal_seq and starts a fresh WAL
  // segment; canonicalizes the store first (unless it already is
  // canonical, see AttachWal) so live state == what recovery rebuilds.
  // Caller holds update_mutex_ and owns the checkpoint/compaction counters.
  CheckpointResult WriteBaseLocked(uint64_t wal_seq)
    requires CheckpointableStore<Store>
  {
    update_mutex_.AssertHeld();
    CheckpointResult result;
    result.compacted = true;
    result.wal_seq = wal_seq;

    // One canonical pass: the list the rebuild loads and the base persists.
    const graph::WeightedEdgeList edges =
        core::CanonicalEdgeList(store_->Graph());
    if (!store_as_built_ || !store_->Graph().IsCanonical()) {
      store_ = std::make_shared<Store>(
          graph::DynamicGraph::FromEdges(store_->NumVertices(), edges),
          store_->Config(), update_pool_);
      store_as_built_ = true;
      PublishLocked();
    }

    uint64_t base_bytes = 0;
    const Store& store = *store_;
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

  mutable util::Mutex update_mutex_;  // serializes writers
  std::shared_ptr<Store> store_ BINGO_GUARDED_BY(update_mutex_);
  mutable util::Mutex front_mutex_;  // guards the publish and Acquire
  std::shared_ptr<Version> front_ BINGO_GUARDED_BY(front_mutex_);
  // Acquire calls waiting for front_mutex_.
  mutable std::atomic<uint64_t> acquiring_{0};
  std::atomic<uint64_t> epoch_{0};
  // No batch applied since the store was built or last rebuilt: with a
  // canonical graph, it equals what a base write would rebuild.
  bool store_as_built_ BINGO_GUARDED_BY(update_mutex_) = true;
  util::ThreadPool* update_pool_;
  mutable std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batches_copied_{0};
  std::atomic<uint64_t> updates_count_{0};

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

// Builds a BingoStore-backed service over `edges` (the store built with
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

// `memory`, when set, is the pool the store's per-vertex storage comes from
// (the shards of a sharded service share one); null gives it its own.
std::unique_ptr<WalkService> RecoverWalkService(
    const std::string& dir, core::BingoConfig config = {},
    graph::VertexId num_vertices = 0, util::ThreadPool* build_pool = nullptr,
    util::ThreadPool* update_pool = nullptr, WalPersistenceOptions options = {},
    RecoveryReport* report = nullptr, RecoveryBatchHook batch_hook = {},
    std::shared_ptr<util::MemoryPool> memory = nullptr);

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_SERVICE_H_
