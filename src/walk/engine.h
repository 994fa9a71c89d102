// Parallel random-walk driver, and the walker core every driver shares.
//
// The paper launches one walker per vertex and advances walks step by step,
// each step being one sample (§6 implementation notes iii). This driver
// runs walkers to completion in parallel on the work-stealing executor.
// The other drivers differ only in their schedule: superstep-by-shard
// (partitioned.h), lockstep SoA with batched draws (fused.h), and
// park-by-block (ooc.h). Each app is one descriptor (apps.h) that every
// driver takes through one entry point: RunApp here, RunPartitionedApp,
// RunFusedApp and RunOocApp there.
//
// DETERMINISM — the one statement of it; the other driver headers point
// here. Walker i owns the stream Rng::ForStream(cfg.seed, i) and nothing
// else draws from it. Every driver applies the same start rules
// (BeginWalks, StartWalker) and the same per-hop variate order: one
// StepperNext, then, if it resolved a vertex, one Terminate draw (Hop). A walker's trajectory is therefore a pure function of (seed,
// id, store), and drivers reorder only across walkers. Totals and visit
// counts merge by addition, which commutes (WalkTally); paths are stitched
// back into walker-id order (StitchChunks, StitchWalkerPaths). So every
// driver's output is bit-identical to RunWalks here, for any thread count,
// steal order, pinning, shard count, cache budget or spill threshold, and
// for any store backend with the same sampler semantics (src/walk/store.h).
//
// A Stepper supplies the application logic:
//
//   struct Stepper {
//     // Next vertex, or graph::kInvalidVertex to stop (dead end / reject).
//     graph::VertexId Next(graph::VertexId cur, graph::VertexId prev,
//                          util::Rng& rng) const;
//     // Post-step termination test (e.g. PPR's stop probability).
//     bool Terminate(util::Rng& rng) const;
//   };
//
// Step-aware steppers (metapath walks, whose eligible target type is a
// function of the step index) instead expose
//   Next(cur, prev, uint32_t step, rng)
// where `step` is the 0-based index of the transition being taken. Every
// driver dispatches through StepperNext below, so both shapes run on every
// driver without adaptation.
//
// Merging is lock-free end to end: per-chunk tallies land in a WalkTally
// through relaxed atomics, and per-chunk path buffers land in a pre-sized
// slot array indexed by chunk id — the executor's chunk plan is a pure
// function of (range, grain, thread count), so every chunk has exactly one
// writer and its slot. The buffers themselves are ScratchVectors leasing
// recycled blocks from the executor's scratch MemoryPool (sharded by worker
// id): in the steady state a RunWalks call performs zero system allocations
// for chunk buffers.

#ifndef BINGO_SRC_WALK_ENGINE_H_
#define BINGO_SRC_WALK_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/store.h"

namespace bingo::walk {

struct WalkConfig {
  uint64_t num_walkers = 0;   // 0 = one per vertex
  uint32_t walk_length = 80;  // maximum steps (stops earlier on dead ends)
  uint64_t seed = 42;
  bool record_paths = false;   // collect full paths (embedding corpora)
  bool count_visits = false;   // per-vertex visit frequencies (PPR)
  // When set, every walker starts here instead of at (walker id mod
  // num_vertices) — single-source queries (personalized PageRank) run on
  // the same engine and merge path as whole-graph workloads.
  graph::VertexId start_vertex = graph::kInvalidVertex;
};

// Uniform dispatch over the two stepper shapes. `step` is the 0-based index
// of the transition about to be taken (== number of hops already taken);
// classic steppers never see it, so their variate sequences are untouched.
template <typename Stepper>
graph::VertexId StepperNext(const Stepper& stepper, graph::VertexId cur,
                            graph::VertexId prev, uint32_t step,
                            util::Rng& rng) {
  if constexpr (requires { stepper.Next(cur, prev, step, rng); }) {
    return stepper.Next(cur, prev, step, rng);
  } else {
    return stepper.Next(cur, prev, rng);
  }
}

struct WalkResult {
  uint64_t total_steps = 0;       // edges traversed across all walkers
  uint64_t finished_walkers = 0;  // walkers that took at least one step
  // Flattened paths when record_paths: walker i owns
  // paths[path_offsets[i] .. path_offsets[i+1]).
  std::vector<graph::VertexId> paths;
  std::vector<uint64_t> path_offsets;
  // Visit frequencies when count_visits (includes start vertices).
  std::vector<uint32_t> visit_counts;
};

// ---- the walker core -------------------------------------------------------

// The start rules' walker count: cfg.num_walkers, or one walker per vertex
// when it is 0. Sizes result.path_offsets for a recording walk and returns
// 0 when no walker can start (an empty store, or a start_vertex outside
// it); the driver then returns `result` as it stands.
inline uint64_t BeginWalks(const WalkConfig& cfg, graph::VertexId num_vertices,
                           WalkResult& result) {
  const uint64_t num_walkers =
      cfg.num_walkers == 0 ? num_vertices : cfg.num_walkers;
  if (cfg.record_paths) {
    result.path_offsets.assign(num_walkers + 1, 0);
  }
  if (num_vertices == 0 || (cfg.start_vertex != graph::kInvalidVertex &&
                            cfg.start_vertex >= num_vertices)) {
    return 0;
  }
  return num_walkers;
}

// Where a walker stands: what one hop reads and moves.
struct WalkerPos {
  graph::VertexId cur = graph::kInvalidVertex;
  graph::VertexId prev = graph::kInvalidVertex;
  uint32_t len = 0;  // hops taken == the step index of the next hop
};

// Everything needed to resume a walk bit-exactly. Trivially copyable, so
// the out-of-core driver spills it as a raw record.
struct Walker : WalkerPos {
  uint64_t id = 0;
  util::Rng rng;
};
static_assert(std::is_trivially_copyable_v<Walker>);

// Walker `id` at its start vertex, holding its own stream.
inline Walker StartWalker(const WalkConfig& cfg, uint64_t id,
                          graph::VertexId num_vertices) {
  Walker walker;
  walker.id = id;
  walker.cur = cfg.start_vertex != graph::kInvalidVertex
                   ? cfg.start_vertex
                   : static_cast<graph::VertexId>(id % num_vertices);
  walker.rng = util::Rng::ForStream(cfg.seed, id);
  return walker;
}

// One hop of the walker at `pos` drawing from `rng`: StepperNext, and if it
// resolved a vertex, land on it — move prev/cur, count the hop, hand the
// vertex to `record` (path and visit), then take the hop's single Terminate
// draw. True while the walker goes on; false once it retires (dead end,
// Terminate, or the length cap). A retired walker finished if it took at
// least one hop (pos.len > 0). The position and the stream are separate
// arguments so that a hot loop can keep the position in registers while
// the sampler takes the stream's address.
template <typename Stepper, typename Record>
bool Hop(const Stepper& stepper, uint32_t walk_length, WalkerPos& pos,
         util::Rng& rng, Record&& record) {
  const graph::VertexId next =
      StepperNext(stepper, pos.cur, pos.prev, pos.len, rng);
  if (next == graph::kInvalidVertex) {
    return false;
  }
  pos.prev = pos.cur;
  pos.cur = next;
  ++pos.len;
  record(next);
  return !stepper.Terminate(rng) && pos.len < walk_length;
}

// Lock-free merge target of a walk's chunks: step and finisher totals and,
// when counting visits, per-vertex visit counts. Relaxed atomic additions
// commute, so the merged result does not depend on chunk order.
class WalkTally {
 public:
  WalkTally() = default;
  WalkTally(const WalkConfig& cfg, graph::VertexId num_vertices) {
    Size(cfg, num_vertices);
  }

  void Size(const WalkConfig& cfg, graph::VertexId num_vertices) {
    if (cfg.count_visits) {
      visits_ = std::vector<std::atomic<uint32_t>>(num_vertices);
    }
  }

  // One visit of v (the tally counts visits).
  void Visit(graph::VertexId v) {
    visits_[v].fetch_add(1, std::memory_order_relaxed);
  }

  // `local_visits` is one chunk's per-vertex counts (empty when not
  // counting visits).
  void Add(uint64_t steps, uint64_t finished,
           std::span<const uint32_t> local_visits) {
    steps_.fetch_add(steps, std::memory_order_relaxed);
    finished_.fetch_add(finished, std::memory_order_relaxed);
    for (std::size_t v = 0; v < local_visits.size(); ++v) {
      if (local_visits[v] != 0) {
        visits_[v].fetch_add(local_visits[v], std::memory_order_relaxed);
      }
    }
  }

  void Finish(WalkResult& result) const {
    result.total_steps = steps_.load(std::memory_order_relaxed);
    result.finished_walkers = finished_.load(std::memory_order_relaxed);
    if (!visits_.empty()) {
      result.visit_counts.resize(visits_.size());
      for (std::size_t v = 0; v < visits_.size(); ++v) {
        result.visit_counts[v] = visits_[v].load(std::memory_order_relaxed);
      }
    }
  }

 private:
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> finished_{0};
  std::vector<std::atomic<uint32_t>> visits_;
};

// One chunk's output in the chunk-contiguous drivers (engine, fused): its
// walkers' paths back to back in walker order, and each path's length.
struct ChunkPaths {
  util::ScratchVector<graph::VertexId> paths;
  util::ScratchVector<uint64_t> lengths;
};

// Stitches chunk-contiguous output into result.paths; chunk c holds
// walkers [c * chunk_size, ...). result.path_offsets comes sized from
// BeginWalks.
inline void StitchChunks(std::span<const ChunkPaths> chunks,
                         std::size_t chunk_size, WalkResult& result) {
  std::vector<uint64_t>& offsets = result.path_offsets;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t i = 0; i < chunks[c].lengths.size(); ++i) {
      offsets[c * chunk_size + i + 1] = chunks[c].lengths[i];
    }
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  result.paths.resize(offsets.back());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    std::copy(chunks[c].paths.begin(), chunks[c].paths.end(),
              result.paths.begin() +
                  static_cast<std::ptrdiff_t>(offsets[c * chunk_size]));
  }
}

// Stitches per-walker output (superstep, out-of-core): walker_paths[w] is
// walker w's path.
inline void StitchWalkerPaths(
    std::span<const util::ScratchVector<graph::VertexId>> walker_paths,
    WalkResult& result) {
  std::vector<uint64_t>& offsets = result.path_offsets;
  for (std::size_t w = 0; w < walker_paths.size(); ++w) {
    offsets[w + 1] = offsets[w] + walker_paths[w].size();
  }
  result.paths.reserve(offsets.back());
  for (const auto& path : walker_paths) {
    result.paths.insert(result.paths.end(), path.begin(), path.end());
  }
}

// The start of a queue-scheduled driver (superstep, out-of-core): walker
// w's path buffer holds its start vertex when recording, each start is
// counted in `tally` when counting visits, and every walker with hops to
// take goes to `enqueue`. Returns the per-walker path buffers, leasing from
// `scratch` (null: the heap).
template <typename Enqueue>
std::vector<util::ScratchVector<graph::VertexId>> StartQueuedWalkers(
    const WalkConfig& cfg, uint64_t num_walkers, graph::VertexId num_vertices,
    util::MemoryPool* scratch, WalkTally& tally, Enqueue&& enqueue) {
  std::vector<util::ScratchVector<graph::VertexId>> paths;
  paths.reserve(cfg.record_paths ? num_walkers : 0);
  for (uint64_t w = 0; w < num_walkers; ++w) {
    const Walker walker = StartWalker(cfg, w, num_vertices);
    if (cfg.record_paths) {
      paths.emplace_back(scratch);
      paths.back().push_back(walker.cur);
    }
    if (cfg.count_visits) {
      tally.Visit(walker.cur);
    }
    if (cfg.walk_length > 0) {
      enqueue(walker);
    }
  }
  return paths;
}

// ---- run-to-completion -----------------------------------------------------

// Walkers start one-per-vertex (or cfg-sized) over the store's vertex
// space. Works with any SamplingStore backend.
template <typename Store, typename Stepper>
  requires SamplingStore<Store>
WalkResult RunWalks(const Store& store, const WalkConfig& cfg,
                    const Stepper& stepper, util::ThreadPool* pool = nullptr) {
  const graph::VertexId num_vertices =
      static_cast<graph::VertexId>(store.NumVertices());
  WalkResult result;
  const uint64_t num_walkers = BeginWalks(cfg, num_vertices, result);
  if (num_walkers == 0) {
    return result;
  }
  WalkTally tally(cfg, num_vertices);

  // One slot per chunk of the executor's deterministic plan (a single slot
  // on the serial path). Each chunk task moves its leased buffers into its
  // own slot — no merge lock, single writer by construction.
  constexpr std::size_t kGrain = 256;
  const util::ChunkPlan plan =
      pool != nullptr
          ? util::ComputeChunkPlan(num_walkers, kGrain, pool->NumThreads())
          : util::ChunkPlan{1, static_cast<std::size_t>(num_walkers)};
  util::MemoryPool* scratch = pool != nullptr ? &pool->ScratchMemory() : nullptr;
  std::vector<ChunkPaths> chunks(cfg.record_paths ? plan.num_chunks : 0);

  const auto run_chunk = [&](std::size_t chunk, std::size_t lo,
                             std::size_t hi) {
    uint64_t steps = 0;
    uint64_t finished = 0;
    ChunkPaths out{util::ScratchVector<graph::VertexId>(scratch),
                   util::ScratchVector<uint64_t>(scratch)};
    if (cfg.record_paths) {
      // Upper bound (start + walk_length per walker), capped so huge PPR
      // caps don't balloon transient chunk buffers.
      out.paths.reserve(std::min<uint64_t>(
          (hi - lo) * (uint64_t{cfg.walk_length} + 1), uint64_t{1} << 20));
      out.lengths.reserve(hi - lo);
    }
    util::ScratchVector<uint32_t> local_visits(scratch);
    if (cfg.count_visits) {
      local_visits.assign(num_vertices, 0);
    }
    const auto record = [&](graph::VertexId v) {
      if (cfg.record_paths) {
        out.paths.push_back(v);
      }
      if (cfg.count_visits) {
        ++local_visits[v];
      }
    };
    for (std::size_t w = lo; w < hi; ++w) {
      const Walker start = StartWalker(cfg, w, num_vertices);
      WalkerPos pos = start;
      util::Rng rng = start.rng;
      record(pos.cur);
      if (cfg.walk_length > 0) {
        while (Hop(stepper, cfg.walk_length, pos, rng, record)) {
        }
      }
      steps += pos.len;
      finished += pos.len > 0 ? 1 : 0;
      if (cfg.record_paths) {
        out.lengths.push_back(uint64_t{pos.len} + 1);
      }
    }
    tally.Add(steps, finished, local_visits);
    if (cfg.record_paths) {
      chunks[chunk] = std::move(out);
    }
  };

  if (pool != nullptr) {
    pool->ParallelForChunks(0, num_walkers, run_chunk, kGrain);
  } else {
    run_chunk(0, 0, num_walkers);
  }

  tally.Finish(result);
  if (cfg.record_paths) {
    StitchChunks(chunks, plan.chunk_size, result);
  }
  return result;
}

// The descriptor entry point (apps.h): the app's config normalization, then
// its stepper over `store`.
template <typename Store, typename App>
  requires SamplingStore<Store>
WalkResult RunApp(const Store& store, const WalkConfig& cfg, const App& app,
                  util::ThreadPool* pool = nullptr) {
  return RunWalks(store, app.Normalize(cfg), app.StepperFor(store), pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_ENGINE_H_
