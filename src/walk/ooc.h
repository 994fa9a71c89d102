// Out-of-core walk driver: block-pass scheduling over a TieredStore (or any
// store modeling BlockScheduledStore).
//
// Execution model (the randgraph engine's discipline, adapted to this
// repo's determinism contract): walkers live in per-block queues keyed by
// the block of their current vertex. Each scheduling round picks one block
// — the virtual RAM block first whenever it has walkers (draining it costs
// no I/O), otherwise the block with the most parked walkers (the cache's
// rank query) — maps it under the resident-byte budget, and runs one
// parallel *pass*: every queued walker advances stickily while its current
// vertex stays inside the block, then retires or parks in the queue of the
// block it crossed into. Queues past a threshold spill to disk as raw
// walker records (56 bytes each: id, position, length, RNG state) and
// drain back when their block is scheduled.
//
// Determinism: walkers are the core's Walker records, so a walker's full
// state travels with it through queues and spill files, and walk output is
// bit-identical to the engine at any cache budget, spill threshold, thread
// count or block schedule (the determinism statement in engine.h).
//
// Concurrency: one RunOocApp at a time per *budgeted* store (eviction
// between passes would yank mappings from under a concurrent pass); the
// driver enforces this via the store's exclusive-walk gate and reports an
// error instead of corrupting. Unconstrained stores only ever add
// mappings, so anything may run concurrently.

#ifndef BINGO_SRC_WALK_OOC_H_
#define BINGO_SRC_WALK_OOC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/block_cache.h"
#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct OocWalkOptions {
  // Park queues at or past this walker count spill to disk after each
  // merge. 0 = never spill.
  std::size_t spill_threshold_walkers = 0;
  // Directory for spill files; a walk with a threshold but no directory
  // fails before any walker moves.
  std::string spill_dir;
};

struct OocWalkResult : WalkResult {
  uint64_t block_passes = 0;
  uint64_t walker_parks = 0;     // cross-block queue handoffs
  uint64_t spilled_walkers = 0;  // walker records written to spill files
  uint64_t block_loads = 0;      // cache loads attributable to this walk
  uint64_t block_evictions = 0;
  std::size_t peak_resident_bytes = 0;
  std::string error;  // non-empty: the walk aborted (results partial)
};

// Disk spill for park queues: one lazily-created file of raw Walker
// records per block. Single-scheduler use only (no internal locking).
class WalkerSpill {
 public:
  // Spill fails while dir is empty. Spill files are removed on Drain and
  // in the destructor.
  WalkerSpill(std::string dir, uint32_t num_blocks);
  ~WalkerSpill();

  WalkerSpill(const WalkerSpill&) = delete;
  WalkerSpill& operator=(const WalkerSpill&) = delete;

  uint64_t Spilled(uint32_t block) const { return counts_[block]; }

  bool Spill(uint32_t block, const Walker* walkers, std::size_t count);
  // Appends block's spilled walkers (oldest first) to `out`, removes the
  // file. False on I/O failure (records may be lost; caller aborts).
  bool Drain(uint32_t block, std::vector<Walker>& out);

 private:
  std::string PathFor(uint32_t block) const;

  std::string dir_;
  std::vector<uint64_t> counts_;
};

// Stores the out-of-core driver can schedule: sampling plus the block
// surface (residency, rank-based scheduling, the exclusive-walk gate).
template <typename S>
concept BlockScheduledStore =
    SamplingStore<S> &&
    requires(const S& cs, graph::VertexId v, uint32_t b, uint64_t n) {
      { cs.NumBlocks() } -> std::convertible_to<uint32_t>;
      { cs.RamBlock() } -> std::convertible_to<uint32_t>;
      { cs.BlockOf(v) } -> std::convertible_to<uint32_t>;
      { cs.PrepareBlock(b) } -> std::convertible_to<bool>;
      { cs.FinishBlockPass(b) };
      { cs.SetParked(b, n) };
      { cs.PickNextBlock() } -> std::convertible_to<int64_t>;
      { cs.CacheStats() } -> std::convertible_to<core::BlockCacheStats>;
      { cs.Budgeted() } -> std::convertible_to<bool>;
      { cs.TryBeginExclusiveWalk() } -> std::convertible_to<bool>;
      { cs.EndExclusiveWalk() };
    };

// The out-of-core driver's descriptor entry point (apps.h).
template <typename Store, typename App>
  requires BlockScheduledStore<Store>
OocWalkResult RunOocApp(const Store& store, const WalkConfig& requested,
                        const App& app, util::ThreadPool* pool = nullptr,
                        const OocWalkOptions& options = {}) {
  const WalkConfig cfg = app.Normalize(requested);
  const auto stepper = app.StepperFor(store);
  const graph::VertexId num_vertices =
      static_cast<graph::VertexId>(store.NumVertices());
  OocWalkResult result;
  const bool spilling = options.spill_threshold_walkers > 0;
  if (spilling && options.spill_dir.empty()) {
    result.error = "ooc walk: a spill threshold needs a spill directory";
    return result;
  }
  const uint64_t num_walkers = BeginWalks(cfg, num_vertices, result);
  if (num_walkers == 0) {
    return result;
  }
  const bool exclusive = store.Budgeted();
  if (exclusive && !store.TryBeginExclusiveWalk()) {
    result.error =
        "concurrent out-of-core walks on one budgeted store are "
        "unsupported; use the engine driver for concurrent queries";
    return result;
  }
  const core::BlockCacheStats before = store.CacheStats();
  const uint32_t num_blocks = store.NumBlocks();
  const uint32_t ram = store.RamBlock();

  WalkTally tally(cfg, num_vertices);
  util::MemoryPool* scratch =
      pool != nullptr ? &pool->ScratchMemory() : nullptr;
  std::vector<std::vector<Walker>> queues(num_blocks);
  WalkerSpill spill(options.spill_dir, num_blocks);
  uint64_t live = 0;
  // Paths are keyed by walker id — exactly one pass (and one chunk within
  // it) appends to a given walker's buffer at a time.
  auto walker_paths = StartQueuedWalkers(
      cfg, num_walkers, num_vertices, scratch, tally,
      [&](const Walker& w) {
        queues[store.BlockOf(w.cur)].push_back(w);
        ++live;
      });
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (b != ram) {
      store.SetParked(b, queues[b].size());
    }
  }

  constexpr std::size_t kGrain = 256;
  std::vector<Walker> run;
  while (live > 0) {
    // RAM-block walkers drain first (no I/O to schedule); otherwise load
    // the block with the most parked walkers.
    int64_t picked = queues[ram].empty() ? store.PickNextBlock()
                                         : static_cast<int64_t>(ram);
    if (picked < 0) {
      result.error = "ooc scheduler: live walkers but no runnable block";
      break;
    }
    const uint32_t b = static_cast<uint32_t>(picked);
    ++result.block_passes;
    if (!store.PrepareBlock(b)) {
      result.error = "ooc scheduler: mapping a block failed (corrupt CSR?)";
      break;
    }
    run.clear();
    if (spill.Spilled(b) > 0 && !spill.Drain(b, run)) {
      result.error = "ooc scheduler: draining a spill file failed";
      break;
    }
    run.insert(run.end(), queues[b].begin(), queues[b].end());
    queues[b].clear();
    if (run.empty()) {
      result.error = "ooc scheduler: scheduled an empty block";
      break;
    }

    const util::ChunkPlan plan =
        pool != nullptr
            ? util::ComputeChunkPlan(run.size(), kGrain, pool->NumThreads())
            : util::ChunkPlan{1, run.size()};
    std::vector<util::ScratchVector<Walker>> outboxes(plan.num_chunks);
    const auto run_chunk = [&](std::size_t chunk, std::size_t lo,
                               std::size_t hi) {
      uint64_t steps = 0;
      uint64_t finished = 0;
      util::ScratchVector<Walker> moved(scratch);
      util::ScratchVector<uint32_t> local_visits(scratch);
      if (cfg.count_visits) {
        local_visits.assign(num_vertices, 0);
      }
      for (std::size_t i = lo; i < hi; ++i) {
        Walker w = run[i];
        const auto record = [&](graph::VertexId v) {
          ++steps;
          if (cfg.record_paths) {
            walker_paths[w.id].push_back(v);
          }
          if (cfg.count_visits) {
            ++local_visits[v];
          }
        };
        // Sticky: the walker runs on while it stays inside block b.
        for (;;) {
          if (!Hop(stepper, cfg.walk_length, w, w.rng, record)) {
            finished += w.len > 0 ? 1 : 0;
            break;
          }
          if (store.BlockOf(w.cur) != b) {
            moved.push_back(w);  // crossed out: park for its new block
            break;
          }
        }
      }
      tally.Add(steps, finished, local_visits);
      outboxes[chunk] = std::move(moved);
    };
    if (pool != nullptr) {
      pool->ParallelForChunks(0, run.size(), run_chunk, kGrain);
    } else {
      run_chunk(0, 0, run.size());
    }
    store.FinishBlockPass(b);

    uint64_t parked = 0;
    for (const auto& moved : outboxes) {
      for (const Walker& w : moved) {
        queues[store.BlockOf(w.cur)].push_back(w);
        ++parked;
      }
    }
    result.walker_parks += parked;
    live -= run.size() - parked;

    for (uint32_t q = 0; q < num_blocks; ++q) {
      if (q == ram) {
        continue;
      }
      if (spilling && queues[q].size() >= options.spill_threshold_walkers &&
          spill.Spill(q, queues[q].data(), queues[q].size())) {
        result.spilled_walkers += queues[q].size();
        queues[q].clear();
        queues[q].shrink_to_fit();
      }
      store.SetParked(q, queues[q].size() + spill.Spilled(q));
    }
  }
  if (exclusive) {
    store.EndExclusiveWalk();
  }

  const core::BlockCacheStats after = store.CacheStats();
  result.block_loads = after.loads - before.loads;
  result.block_evictions = after.evictions - before.evictions;
  result.peak_resident_bytes = after.peak_resident_bytes;
  tally.Finish(result);
  if (cfg.record_paths) {
    StitchWalkerPaths(walker_paths, result);
  }
  return result;
}

template <typename Store>
  requires BlockScheduledStore<Store>
OocWalkResult RunOocDeepWalk(const Store& store, const WalkConfig& cfg,
                             util::ThreadPool* pool = nullptr,
                             const OocWalkOptions& options = {}) {
  return RunOocApp(store, cfg, DeepWalkApp{}, pool, options);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_OOC_H_
