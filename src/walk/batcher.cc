#include "src/walk/batcher.h"

#include <algorithm>

#include "src/util/timer.h"

namespace bingo::walk {

UpdateBatcher::UpdateBatcher(ShardedWalkService& service, BatcherOptions options,
                             util::ThreadPool* pool)
    : service_(service), options_(options) {
  if (pool == nullptr) {
    // Private writer pool: one thread per shard is enough to keep every
    // shard's drain independent; cap it so huge shard counts stay sane.
    util::PoolOptions pool_options = options_.writer_pool;
    if (pool_options.num_threads == 0) {
      pool_options.num_threads = std::min<std::size_t>(
          static_cast<std::size_t>(service_.NumShards()), 4);
    }
    owned_pool_ = std::make_unique<util::ThreadPool>(pool_options);
    pool = owned_pool_.get();
  }
  pool_ = pool;
  queues_.reserve(service_.NumShards());
  for (int s = 0; s < service_.NumShards(); ++s) {
    queues_.push_back(std::make_unique<ShardQueue>());
  }
}

UpdateBatcher::~UpdateBatcher() {
  // Drain the leftovers. After Flush returns no writer task of ours is
  // queued or running (every posted task holds an active_drainers_ ref from
  // post to retire), so members — and an owned pool — can die safely.
  Flush();
}

void UpdateBatcher::ScheduleDrain(int shard, uint64_t BatcherStats::*reason) {
  {
    util::MutexLock lock(stats_mutex_);
    ++(stats_.*reason);
  }
  {
    util::MutexLock lock(idle_mutex_);
    ++active_drainers_;
  }
  pool_->Post([this, shard] { DrainLoop(shard); });
}

void UpdateBatcher::Submit(const graph::Update& update) {
  const int s = service_.ShardOf(update.src);
  ShardQueue& q = *queues_[s];
  // Count the update before the drainer can see it: queue_depth is
  // decremented by the drain that swaps it out, and counting afterwards
  // could underflow the depth if that drain wins the race.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  bool start_drain = false;
  {
    util::MutexLock lock(q.mutex);
    q.pending.push_back(update);
    // An idle writer starts at once; a busy one picks the update up with
    // the rest of its next batch.
    if (options_.auto_flush && !q.drain_active) {
      q.drain_active = true;
      start_drain = true;
    }
  }
  if (start_drain) {
    ScheduleDrain(s, &BatcherStats::submit_drains);
  }
}

void UpdateBatcher::SubmitAll(const graph::UpdateList& updates) {
  for (const graph::Update& u : updates) {
    Submit(u);
  }
}

void UpdateBatcher::DrainLoop(int s) {
  ShardQueue& q = *queues_[s];
  for (;;) {
    graph::UpdateList batch;
    {
      util::MutexLock lock(q.mutex);
      if (q.pending.empty()) {
        q.drain_active = false;
        break;
      }
      batch.swap(q.pending);
    }
    util::Timer timer;
    core::BatchResult result;
    bool applied = true;
    try {
      result = service_.ApplyShardBatch(s, batch);
    } catch (...) {
      // A throwing apply must not kill the drainer (the queue would wedge
      // with drain_active set and Flush would hang). Count the loss and
      // keep draining; Stats() surfaces the divergence.
      applied = false;
    }
    const double seconds = timer.Seconds();
    queue_depth_.fetch_sub(static_cast<int64_t>(batch.size()),
                           std::memory_order_relaxed);
    {
      util::MutexLock lock(stats_mutex_);
      ++stats_.batches;
      stats_.flush_seconds_total += seconds;
      stats_.flush_seconds_max = std::max(stats_.flush_seconds_max, seconds);
      if (applied) {
        stats_.flushed_updates += batch.size();
        stats_.applied += result;
      } else {
        ++stats_.drain_errors;
        stats_.dropped_updates += batch.size();
      }
    }
    if (applied && options_.on_batch_applied) {
      // After the stats update, outside every batcher lock: the callback
      // may take its own (e.g. the walk-index mutex) without ordering
      // against queue or stats mutexes. Dropped batches are not reported —
      // the callback sees exactly the updates the service saw.
      options_.on_batch_applied(s, batch);
    }
  }
  // Retire. Notifying under the mutex makes it safe for a Flush caller to
  // destroy the batcher as soon as its wait returns.
  util::MutexLock lock(idle_mutex_);
  --active_drainers_;
  idle_cv_.NotifyAll();
}

void UpdateBatcher::Flush() {
  for (;;) {
    // Kick a drainer for every shard with pending work and none in flight.
    for (int s = 0; s < service_.NumShards(); ++s) {
      ShardQueue& q = *queues_[s];
      bool start_drain = false;
      {
        util::MutexLock lock(q.mutex);
        if (!q.drain_active && !q.pending.empty()) {
          q.drain_active = true;
          start_drain = true;
        }
      }
      if (start_drain) {
        ScheduleDrain(s, &BatcherStats::manual_flushes);
      }
    }
    {
      util::MutexLock lock(idle_mutex_);
      while (active_drainers_ != 0) {
        idle_cv_.Wait(idle_mutex_);
      }
    }
    // A drainer may have retired just as new work landed (or a racing
    // Submit slipped in between its empty-check and our wait); re-scan and
    // go again until a fully idle pass.
    bool all_empty = true;
    for (const auto& queue : queues_) {
      util::MutexLock lock(queue->mutex);
      if (!queue->pending.empty() || queue->drain_active) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) {
      if (options_.sync_wal_on_flush) {
        service_.SyncWal();
      }
      return;
    }
  }
}

BatcherStats UpdateBatcher::Stats() const {
  util::MutexLock lock(stats_mutex_);
  BatcherStats stats = stats_;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.queue_depth = static_cast<std::size_t>(
      std::max<int64_t>(0, queue_depth_.load(std::memory_order_relaxed)));
  stats.pool_post_errors = pool_->PostErrors();
  return stats;
}

}  // namespace bingo::walk
