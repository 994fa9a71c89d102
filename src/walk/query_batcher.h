// QueryBatcher: async coalescing front-end for walk queries.
//
// UpdateBatcher (walk/batcher.h) coalesces streaming updates into the
// store's batched-apply path; this is its serving-side twin. Callers hand
// the service one walk query at a time (Submit returns a future), and the
// batcher coalesces concurrent queries into size/time-bounded dispatch
// batches, each executed against ONE service snapshot as fused engine
// passes (walk/fused.h):
//
//   * Submit enqueues the query and returns immediately. A dispatch fires
//     when `max_batch_queries` are waiting or when the oldest query has
//     waited `max_delay_seconds` — the familiar throughput/latency knob.
//   * One dispatcher thread swaps the queue out, groups queries that share
//     an application + parameters (DeepWalk; PPR by stop probability;
//     node2vec by p,q), orders groups by the shard of their start vertex
//     (sharded services; keeps consecutive chunk tasks shard-local), and
//     runs each group as one fused pass — all of the group's walkers
//     advance together per step, with lane-batched SIMD draws and adjacency
//     prefetch where the store supports them.
//   * Every query in a dispatch batch observes the same snapshot epoch, so
//     a batch is a consistent point-in-time read — exactly what a single
//     Query() call sees, amortized over the batch.
//
// BIT-IDENTITY. The fused pass guarantees each query's WalkResult is
// bit-for-bit what the per-query service path (service.DeepWalk/Ppr/
// Node2vec with the same WalkConfig) returns against the same epoch —
// batching changes throughput and tail latency, never results.
//
// Ordering: queries are read-only, so cross-query order within a batch is
// immaterial; the epoch a query observes is the one current at dispatch
// (bounded by max_delay_seconds).
//
// Walk execution scratch comes from the walk pool's MemoryPool lease
// machinery, so a warmed-up batcher performs no system allocations inside
// the fused passes; per-query result/promise plumbing is ordinary heap.

#ifndef BINGO_SRC_WALK_QUERY_BATCHER_H_
#define BINGO_SRC_WALK_QUERY_BATCHER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/types.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/walk/fused.h"
#include "src/walk/service.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {

enum class WalkApp : uint8_t { kDeepWalk, kPpr, kNode2vec };

// One walk query as the batcher sees it: the application selector plus the
// engine config and per-application parameters.
struct WalkQuery {
  WalkApp app = WalkApp::kDeepWalk;
  WalkConfig cfg;
  double stop_probability = 1.0 / 80.0;  // PPR only
  Node2vecParams node2vec;               // node2vec only
};

struct QueryBatcherOptions {
  std::size_t max_batch_queries = 64;  // size trigger
  double max_delay_seconds = 0.0005;   // latency bound for a waiting query
};

struct QueryBatcherStats {
  uint64_t submitted = 0;         // queries accepted by Submit
  uint64_t completed = 0;         // futures fulfilled
  uint64_t dispatches = 0;        // dispatch batches executed
  uint64_t fused_groups = 0;      // fused passes run (groups across batches)
  uint64_t size_dispatches = 0;   // triggered by max_batch_queries
  uint64_t time_dispatches = 0;   // triggered by max_delay_seconds
  uint64_t drain_dispatches = 0;  // triggered by shutdown/flush drain
  uint64_t max_batch = 0;         // largest dispatch batch seen
  std::size_t queue_depth = 0;    // queries queued or dispatching right now

  // Mean queries per dispatch; >1 means coalescing is working.
  double CoalesceRatio() const {
    return dispatches > 0 ? static_cast<double>(completed) /
                                static_cast<double>(dispatches)
                          : 0.0;
  }
};

// `Service` is WalkServiceT<...> or ShardedWalkServiceT<...> — anything
// with Query(fn) handing fn a store-concept view.
template <typename Service>
class QueryBatcherT {
 public:
  // The batcher does not own `service`; it must outlive the batcher.
  // `walk_pool` parallelizes the fused passes (nullptr = serial walks); it
  // may be shared with query threads — dispatch never blocks on readers.
  explicit QueryBatcherT(Service& service, QueryBatcherOptions options = {},
                         util::ThreadPool* walk_pool = nullptr)
      : service_(service), options_(options), walk_pool_(walk_pool) {
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }

  // Completes every pending query, then stops the dispatcher.
  ~QueryBatcherT() {
    {
      util::MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    dispatcher_.join();
  }

  QueryBatcherT(const QueryBatcherT&) = delete;
  QueryBatcherT& operator=(const QueryBatcherT&) = delete;

  // Queues one query; the future resolves with its WalkResult (bit-identical
  // to the per-query service path at the dispatch epoch). Thread-safe.
  std::future<WalkResult> Submit(WalkQuery query) {
    Pending pending;
    pending.query = std::move(query);
    pending.arrival = std::chrono::steady_clock::now();
    if constexpr (requires(const Service& s, graph::VertexId v) {
                    { s.ShardOf(v) };
                  }) {
      if (pending.query.cfg.start_vertex != graph::kInvalidVertex) {
        pending.shard = service_.ShardOf(pending.query.cfg.start_vertex);
      }
    }
    std::future<WalkResult> future = pending.promise.get_future();
    {
      util::MutexLock lock(mutex_);
      queue_.push_back(std::move(pending));
      submitted_ += 1;
    }
    cv_.NotifyAll();
    return future;
  }

  // Synchronous convenience: submit and wait.
  WalkResult Run(WalkQuery query) { return Submit(std::move(query)).get(); }

  // Returns once every query Submit()ed before this call has completed.
  void Flush() BINGO_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!(queue_.empty() && in_flight_ == 0)) {
      idle_cv_.Wait(mutex_);
    }
  }

  QueryBatcherStats Stats() const BINGO_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    QueryBatcherStats stats = stats_;
    stats.submitted = submitted_;
    stats.queue_depth = queue_.size() + in_flight_;
    return stats;
  }

 private:
  struct Pending {
    WalkQuery query;
    std::promise<WalkResult> promise;
    std::chrono::steady_clock::time_point arrival;
    int shard = 0;
  };

  // Group identity: queries fuse when they run the same application with
  // the same per-application parameters (WalkConfig may differ freely).
  static bool SameGroup(const WalkQuery& a, const WalkQuery& b) {
    if (a.app != b.app) {
      return false;
    }
    switch (a.app) {
      case WalkApp::kDeepWalk:
        return true;
      case WalkApp::kPpr:
        return a.stop_probability == b.stop_probability;
      case WalkApp::kNode2vec:
        return a.node2vec.p == b.node2vec.p && a.node2vec.q == b.node2vec.q;
    }
    return false;
  }

  static bool OrderBefore(const Pending& a, const Pending& b) {
    if (a.query.app != b.query.app) {
      return a.query.app < b.query.app;
    }
    if (a.query.stop_probability != b.query.stop_probability) {
      return a.query.stop_probability < b.query.stop_probability;
    }
    if (a.query.node2vec.p != b.query.node2vec.p) {
      return a.query.node2vec.p < b.query.node2vec.p;
    }
    if (a.query.node2vec.q != b.query.node2vec.q) {
      return a.query.node2vec.q < b.query.node2vec.q;
    }
    return a.shard < b.shard;  // shard-local chunk order within a group
  }

  void DispatcherLoop() BINGO_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (true) {
      if (queue_.empty()) {
        if (stopping_) {
          break;
        }
        while (!stopping_ && queue_.empty()) {
          cv_.Wait(mutex_);
        }
        continue;
      }
      uint64_t QueryBatcherStats::*trigger = &QueryBatcherStats::drain_dispatches;
      if (!stopping_ && queue_.size() < options_.max_batch_queries) {
        const auto deadline =
            queue_.front().arrival +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options_.max_delay_seconds));
        // wait_until-with-predicate, unrolled so the predicate's guarded
        // reads stay inside this REQUIRES context (a lambda would not).
        bool sized;
        for (;;) {
          sized = stopping_ || queue_.size() >= options_.max_batch_queries;
          if (sized) {
            break;
          }
          if (cv_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
            sized = stopping_ || queue_.size() >= options_.max_batch_queries;
            break;
          }
        }
        trigger = sized && !stopping_ ? &QueryBatcherStats::size_dispatches
                                      : &QueryBatcherStats::time_dispatches;
        if (stopping_) {
          trigger = &QueryBatcherStats::drain_dispatches;
        }
      } else if (!stopping_) {
        trigger = &QueryBatcherStats::size_dispatches;
      }
      std::vector<Pending> batch;
      batch.swap(queue_);
      in_flight_ = batch.size();
      stats_.dispatches += 1;
      stats_.*trigger += 1;
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
      lock.Unlock();
      const uint64_t groups = RunBatch(batch);
      lock.Lock();
      stats_.fused_groups += groups;
      stats_.completed += batch.size();
      in_flight_ = 0;
      idle_cv_.NotifyAll();
    }
    idle_cv_.NotifyAll();
  }

  // Executes one dispatch batch against a single snapshot; returns the
  // number of fused groups run.
  uint64_t RunBatch(std::vector<Pending>& batch) {
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Pending& a, const Pending& b) {
                       return OrderBefore(a, b);
                     });
    uint64_t groups = 0;
    service_.Query([&](const auto& view) {
      std::size_t a = 0;
      while (a < batch.size()) {
        std::size_t b = a + 1;
        while (b < batch.size() &&
               SameGroup(batch[a].query, batch[b].query)) {
          ++b;
        }
        RunGroup(view, std::span<Pending>(batch.data() + a, b - a));
        ++groups;
        a = b;
      }
      return 0;
    });
    return groups;
  }

  template <typename View>
  void RunGroup(const View& view, std::span<Pending> group) {
    std::vector<WalkConfig> cfgs;
    cfgs.reserve(group.size());
    for (const Pending& p : group) {
      cfgs.push_back(p.query.cfg);
    }
    std::vector<WalkResult> results(group.size());
    try {
      const WalkQuery& head = group.front().query;
      switch (head.app) {
        case WalkApp::kDeepWalk:
          RunFusedApp(view, cfgs, DeepWalkApp{}, results, walk_pool_);
          break;
        case WalkApp::kPpr:
          RunFusedApp(view, cfgs, PprApp{head.stop_probability}, results,
                      walk_pool_);
          break;
        case WalkApp::kNode2vec:
          if constexpr (AdjacencyStore<View>) {
            RunFusedApp(view, cfgs, Node2vecApp{head.node2vec},
                        results, walk_pool_);
          } else {
            throw std::logic_error(
                "node2vec queries need an adjacency-capable store");
          }
          break;
      }
    } catch (...) {
      for (Pending& p : group) {
        p.promise.set_exception(std::current_exception());
      }
      return;
    }
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i].promise.set_value(std::move(results[i]));
    }
  }

  Service& service_;
  const QueryBatcherOptions options_;
  util::ThreadPool* walk_pool_;

  mutable util::Mutex mutex_;
  util::CondVar cv_;       // wakes the dispatcher
  util::CondVar idle_cv_;  // wakes Flush waiters
  std::vector<Pending> queue_ BINGO_GUARDED_BY(mutex_);
  std::size_t in_flight_ BINGO_GUARDED_BY(mutex_) = 0;
  uint64_t submitted_ BINGO_GUARDED_BY(mutex_) = 0;
  QueryBatcherStats stats_ BINGO_GUARDED_BY(mutex_);
  bool stopping_ BINGO_GUARDED_BY(mutex_) = false;
  std::thread dispatcher_;
};

// The shipped instantiations are compiled once in query_batcher.cc.
extern template class QueryBatcherT<WalkService>;
extern template class QueryBatcherT<ShardedWalkService>;

using QueryBatcher = QueryBatcherT<WalkService>;
using ShardedQueryBatcher = QueryBatcherT<ShardedWalkService>;

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_QUERY_BATCHER_H_
