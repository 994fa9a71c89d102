// UpdateBatcher: async coalescing front-end for the sharded service.
//
// Streaming producers hand the service one edge at a time, but the store's
// batched-update path amortizes one sampler rebuild per touched vertex per
// batch (§5.2) — applying single-edge updates individually forfeits that.
// The batcher sits in front of ShardedWalkService and coalesces Submit()ed
// updates into per-shard batches by group commit:
//
//   * Submit routes the update to its shard's queue (ShardOf(src), the same
//     routing the service itself uses) under that shard's queue mutex.
//   * A shard whose writer is idle gets a writer task posted to the thread
//     pool at once. One writer task is in flight per shard at a time; it
//     repeatedly swaps the whole queue out and applies it through
//     ApplyShardBatch until the queue is empty. An update that arrives
//     while its shard is applying joins the next batch, so per-shard
//     update order is preserved, a trickle is applied without waiting,
//     and bursts coalesce into large batches automatically.
//   * Flush() drains everything synchronously: every update Submit()ed
//     before the call is applied when it returns.
//   * With auto_flush off, Submit only queues: batches form exactly
//     between Flush() calls, which makes the batch boundaries (and so the
//     walk output) a pure function of the submit/flush sequence.
//
// Latency: no timer or size threshold holds an update back. It is visible
// to walks once its shard's ApplyBatch publishes it: after the batch
// already applying on that shard, if any, then the apply of its own batch,
// which is one store ApplyBatch, in place when no snapshot reads the
// shard's published version and over private copies of the touched
// vertices otherwise (walk/service.h).
//
// Durability: when the sharded service has a WAL attached (walk/service.h),
// every drained batch is journaled BEFORE it is applied — the journal
// happens inside the shard's ApplyBatch, so batched single-edge submits
// survive a crash exactly like direct batches. An update still sitting in a
// queue is NOT yet durable; Flush() (optionally with sync_wal_on_flush) is
// the commit point a producer can wait on.
//
// Ordering: per-shard FIFO (one drainer per shard). Updates to different
// shards may apply in any order — the same independence the sharded
// service itself exposes. A writer task never waits for a reader: a batch
// that a live snapshot could read builds a new version from copies, and
// the superseded storage is freed when the last such snapshot is released
// (walk/service.h). Only an Acquire may wait, for at most the one in-place
// apply it found running. By default the batcher owns a small private
// pool, which keeps batch applies off the threads that run walks.

#ifndef BINGO_SRC_WALK_BATCHER_H_
#define BINGO_SRC_WALK_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/store_types.h"
#include "src/graph/types.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {

struct BatcherOptions {
  // Drain a shard as soon as an update reaches its idle writer. Off, the
  // batcher drains only in Flush().
  bool auto_flush = true;
  // fsync every shard WAL at the end of Flush(): with a WAL attached to the
  // service, a true Flush() return then means every update Submit()ed
  // before the call is applied AND durable. Without it (or with the
  // service's fsync_on_commit), durability follows the service's policy.
  bool sync_wal_on_flush = false;
  // Shape of the private writer pool when no pool is passed in:
  // num_threads == 0 keeps the default heuristic (min(shards, 4));
  // pinning/NUMA flags pass straight to the executor.
  util::PoolOptions writer_pool;
  // Invoked from the writer task after each batch is successfully applied,
  // with no batcher lock held (the shard queue may already be refilling).
  // Per-shard calls are ordered like the drains themselves; calls for
  // different shards race. Intended consumer: WalkIndexService::
  // NotifyApplied, which keeps the walk corpus' staleness accounting in
  // step with batched writes. The callback must not Submit() back into the
  // batcher or block on a live service Snapshot.
  std::function<void(int shard, const graph::UpdateList& batch)>
      on_batch_applied;
};

struct BatcherStats {
  uint64_t submitted = 0;        // updates accepted by Submit
  uint64_t flushed_updates = 0;  // updates applied to the service
  uint64_t batches = 0;          // ApplyShardBatch calls issued
  uint64_t submit_drains = 0;    // drains started by Submit (auto_flush)
  uint64_t manual_flushes = 0;   // drains triggered by Flush()
  // Batches whose ApplyShardBatch threw. The writer task survives (the
  // drainer catches, retires cleanly, and later drains proceed), but the
  // failed batch's updates are DROPPED — a nonzero count means the service
  // and the submitted stream have diverged. dropped_updates totals them.
  uint64_t drain_errors = 0;
  uint64_t dropped_updates = 0;
  // Fire-and-forget tasks whose exceptions the writer pool's executor
  // swallowed (see ThreadPool::PostErrors). With an owned pool and the
  // drainer catch above, this stays 0 — it is the backstop's backstop.
  uint64_t pool_post_errors = 0;
  std::size_t queue_depth = 0;   // updates queued or draining right now
  double flush_seconds_total = 0.0;  // time inside ApplyShardBatch
  double flush_seconds_max = 0.0;    // slowest single batch
  core::BatchResult applied;         // accounting across all drained batches

  // Mean updates per applied batch; >1 means coalescing is working.
  double CoalesceRatio() const {
    return batches > 0
               ? static_cast<double>(flushed_updates) / static_cast<double>(batches)
               : 0.0;
  }
};

class UpdateBatcher {
 public:
  // The batcher does not own `service`; it must outlive the batcher. With
  // `pool == nullptr` the batcher owns a private writer pool; a caller's
  // pool may also run walk queries, since no writer task waits for a
  // reader (see the header comment).
  explicit UpdateBatcher(ShardedWalkService& service, BatcherOptions options = {},
                         util::ThreadPool* pool = nullptr);

  // Drains everything still queued; no writer task outlives the batcher.
  ~UpdateBatcher();

  UpdateBatcher(const UpdateBatcher&) = delete;
  UpdateBatcher& operator=(const UpdateBatcher&) = delete;

  // Queues one update; returns immediately. Thread-safe.
  void Submit(const graph::Update& update);

  // Convenience: queue a whole list (each update routed independently).
  void SubmitAll(const graph::UpdateList& updates);

  // Applies every update Submit()ed before this call. Safe from any
  // thread, including one that holds a live service Snapshot: the batches
  // that snapshot could read are applied over copies, so no drain waits
  // for it.
  void Flush();

  BatcherStats Stats() const;

 private:
  struct ShardQueue {
    util::Mutex mutex;
    graph::UpdateList pending BINGO_GUARDED_BY(mutex);
    // One writer task in flight per shard.
    bool drain_active BINGO_GUARDED_BY(mutex) = false;
  };

  // Posts a writer task for `shard` and charges the trigger to `reason`.
  // The caller must have set the shard's drain_active flag (it owns the
  // sole right to start this shard's drainer).
  void ScheduleDrain(int shard, uint64_t BatcherStats::*reason);

  // The writer task: drains shard `s` until its queue stays empty.
  void DrainLoop(int s);

  ShardedWalkService& service_;
  const BatcherOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  // owned_pool_.get() or caller's

  std::vector<std::unique_ptr<ShardQueue>> queues_;

  // Submit-side counters are lock-free so concurrent submitters to
  // disjoint shards never serialize on a global lock; the mutex guards
  // only the drain-side aggregates.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<int64_t> queue_depth_{0};
  mutable util::Mutex stats_mutex_;
  BatcherStats stats_ BINGO_GUARDED_BY(stats_mutex_);

  // Signaled whenever a drainer retires; Flush waits on it. A writer task
  // holds one active_drainers_ ref from post to retire, so zero means no
  // batcher code is running or queued on the pool.
  util::Mutex idle_mutex_;
  util::CondVar idle_cv_;
  int active_drainers_ BINGO_GUARDED_BY(idle_mutex_) = 0;
};

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_BATCHER_H_
