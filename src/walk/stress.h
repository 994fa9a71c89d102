// Stress driving for the serving front-ends: N query threads walk snapshots
// while the calling thread, the single writer, streams update batches.
//
// One driver serves both WalkServiceT (walk/service.h) and
// ShardedWalkServiceT (walk/sharded_service.h). Every query checks
// Snapshot::Consistent() and records the snapshot's epoch; the report says
// how many checks failed (the protocol allows none). The concurrency tests
// run it (tests/walk_service_test.cc, tests/sharded_stress_test.cc), in the
// TSan job too. It measures nothing: the serving benchmark is bench/e2e.

#ifndef BINGO_SRC_WALK_STRESS_H_
#define BINGO_SRC_WALK_STRESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/graph/types.h"
#include "src/walk/apps.h"
#include "src/walk/batcher.h"
#include "src/walk/sharded_service.h"

namespace bingo::walk {

struct StressOptions {
  int query_threads = 4;
  uint64_t batch_size = 1000;  // updates per ApplyBatch / per flush window
  uint64_t walkers_per_query = 256;
  uint32_t walk_length = 10;
  uint64_t seed = 42;
  // Sharded service only: submit each window one edge at a time through an
  // UpdateBatcher (walk/batcher.h) and Flush, instead of ApplyBatch.
  bool use_batcher = false;
};

struct StressReport {
  uint64_t queries = 0;
  uint64_t walk_steps = 0;               // neighbor samples served
  uint64_t inconsistent_snapshots = 0;   // protocol violations (must be 0)
  uint64_t batches = 0;                  // windows the writer applied
  uint64_t min_epoch_observed = 0;       // over every query's snapshot
  uint64_t max_epoch_observed = 0;
};

// Splits `updates` into windows of options.batch_size and applies them in
// order; the window boundaries are the batch boundaries the service sees.
template <typename Service>
StressReport RunServiceStress(Service& service,
                              const graph::UpdateList& updates,
                              const StressOptions& options) {
  std::optional<UpdateBatcher> batcher;
  if (options.use_batcher) {
    if constexpr (std::is_same_v<Service, ShardedWalkService>) {
      batcher.emplace(service);
    } else {
      throw std::invalid_argument("batcher mode needs a ShardedWalkService");
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> walk_steps{0};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> min_epoch{UINT64_MAX};
  std::atomic<uint64_t> max_epoch{0};

  // Query threads run poolless so the writer has any pool to itself (and
  // batcher writer tasks never starve walk chunks).
  const auto query_loop = [&](int thread_id) {
    uint64_t iteration = 0;
    // Every thread issues at least one query even if updates finish first.
    while (!stop.load(std::memory_order_acquire) || iteration == 0) {
      WalkConfig cfg;
      cfg.num_walkers = options.walkers_per_query;
      cfg.walk_length = options.walk_length;
      cfg.seed = options.seed +
                 static_cast<uint64_t>(thread_id) * 0x9e3779b9ULL + iteration;
      const auto snap = service.Acquire();
      WalkResult result;
      if constexpr (requires { snap.store(); }) {
        result = RunDeepWalk(snap.store(), cfg, nullptr);
      } else {
        result = RunDeepWalk(snap, cfg, nullptr);  // the composite is a store
      }
      walk_steps.fetch_add(result.total_steps, std::memory_order_relaxed);
      if (!snap.Consistent()) {
        inconsistent.fetch_add(1, std::memory_order_relaxed);
      }
      const uint64_t epoch = snap.epoch();
      uint64_t seen = min_epoch.load(std::memory_order_relaxed);
      while (epoch < seen &&
             !min_epoch.compare_exchange_weak(seen, epoch,
                                              std::memory_order_relaxed)) {
      }
      seen = max_epoch.load(std::memory_order_relaxed);
      while (epoch > seen &&
             !max_epoch.compare_exchange_weak(seen, epoch,
                                              std::memory_order_relaxed)) {
      }
      queries.fetch_add(1, std::memory_order_relaxed);
      ++iteration;
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(options.query_threads);
  for (int t = 0; t < options.query_threads; ++t) {
    workers.emplace_back(query_loop, t);
  }

  StressReport report;
  const uint64_t batch_size = std::max<uint64_t>(1, options.batch_size);
  for (std::size_t begin = 0; begin < updates.size(); begin += batch_size) {
    const std::size_t end = std::min(updates.size(), begin + batch_size);
    if (batcher) {
      for (std::size_t i = begin; i < end; ++i) {
        batcher->Submit(updates[i]);
      }
      batcher->Flush();
    } else {
      service.ApplyBatch(
          graph::UpdateList(updates.begin() + begin, updates.begin() + end));
    }
    ++report.batches;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  report.queries = queries.load();
  report.walk_steps = walk_steps.load();
  report.inconsistent_snapshots = inconsistent.load();
  report.min_epoch_observed = min_epoch.load();
  report.max_epoch_observed = max_epoch.load();
  return report;
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_STRESS_H_
