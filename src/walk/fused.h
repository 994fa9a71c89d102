// Fused walk passes: many queries, one step-synchronous engine sweep.
//
// The per-query driver (walk/engine.h) advances one walker to completion
// before touching the next, so every step pays an isolated pointer chase
// into the sampler of a cold vertex. This driver executes a GROUP of walk
// queries as one pass: the union of all queries' walkers is chunked onto
// the executor, and within a chunk all walkers advance together step by
// step in structure-of-arrays form. That layout is what unlocks the PR's
// two serving optimizations:
//
//   * Batched draws — walkers of a chunk standing on the same vertex at the
//     same step resolve their next hop through the store's lane-batched
//     SampleNeighborBatch (SIMD alias/ITS/radix kernels,
//     src/sampling/batch_kernels.h) instead of d independent scalar draws.
//   * Software prefetch — while one vertex's group is being resolved, the
//     next group's sampler state and adjacency head are prefetched
//     (store.PrefetchVertex), hiding the chase behind real work.
//
// BIT-IDENTITY. Every reordering this driver performs is across walkers;
// within a walker the engine's variate order is kept exactly, and the
// batched draw path is itself bit-identical per walker (see
// BatchSamplingStore). So every query's WalkResult is bit-for-bit what the
// engine returns for it (the determinism statement in engine.h); tests pin
// this (tests/query_batcher_test.cc).
//
// Steppers advertise `kFirstOrder` (walk/apps.h): only first-order steppers
// (DeepWalk, PPR) use the batched-draw path; second-order node2vec keeps
// scalar per-walker draws (its variate count depends on prev) but still
// gains the fused layout and prefetching.
//
// Scratch discipline matches the engine: every per-chunk buffer is a
// ScratchVector leasing from the executor's MemoryPool, so a warmed-up
// fused pass performs zero system allocations for chunk state.

#ifndef BINGO_SRC_WALK_FUSED_H_
#define BINGO_SRC_WALK_FUSED_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/scratch.h"
#include "src/util/thread_pool.h"
#include "src/walk/apps.h"
#include "src/walk/engine.h"
#include "src/walk/store.h"

namespace bingo::walk {

namespace fused_internal {

// Satisfied only by steppers that declare themselves first-order (Next is
// exactly one SampleNeighbor draw, independent of prev).
template <typename Stepper>
concept FirstOrderTagged = requires { requires Stepper::kFirstOrder; };

template <typename Store, typename Stepper>
inline constexpr bool kBatchDraws =
    BatchSamplingStore<Store> && FirstOrderTagged<Stepper>;

// Walkers standing alone on a vertex go through the scalar stepper; only
// runs at least this long pay the batch kernel's tile setup.
inline constexpr std::size_t kMinBatchRun = 4;
// Lookahead distance for the scalar prefetch path.
inline constexpr std::size_t kPrefetchAhead = 8;

// Stores may advertise their own break-even run length via a static
// kMinBatchRun member — the out-of-core tiered store fetches the edge run
// once per lane batch, so even a run of 2 amortizes (walk/ooc_store.h).
template <typename Store>
constexpr std::size_t MinBatchRunFor() {
  if constexpr (requires { Store::kMinBatchRun; }) {
    return Store::kMinBatchRun;
  } else {
    return kMinBatchRun;
  }
}

// Advances walkers [lo, hi) of one query to completion, step-synchronously.
template <typename Store, typename Stepper>
void RunFusedChunk(const Store& store, const Stepper& stepper,
                   const WalkConfig& cfg, graph::VertexId num_vertices,
                   uint64_t lo, uint64_t hi, util::MemoryPool* scratch,
                   WalkTally& tally, ChunkPaths* out_paths) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  const uint32_t walk_length = cfg.walk_length;
  // Walker-major SoA state. Paths land in a fixed-stride slab (row i =
  // walker lo + i) because walkers finish at different steps; the slab is
  // compacted into the engine's walker-major chunk layout at the end.
  const uint64_t stride = uint64_t{walk_length} + 1;
  util::ScratchVector<util::Rng> rngs(scratch);
  util::ScratchVector<graph::VertexId> curs(scratch);
  util::ScratchVector<graph::VertexId> prevs(scratch);
  util::ScratchVector<graph::VertexId> nexts(scratch);
  util::ScratchVector<uint32_t> alive(scratch);
  util::ScratchVector<uint8_t> took_step(scratch);
  util::ScratchVector<graph::VertexId> slab(scratch);
  util::ScratchVector<uint64_t> lens(scratch);
  util::ScratchVector<uint32_t> local_visits(scratch);
  util::ScratchVector<uint64_t> order(scratch);    // (cur << 32) | local id
  util::ScratchVector<util::Rng*> rng_ptrs(scratch);
  util::ScratchVector<graph::VertexId> batch_out(scratch);

  rngs.reserve(n);
  curs.reserve(n);
  prevs.assign(n, graph::kInvalidVertex);
  nexts.assign(n, graph::kInvalidVertex);
  alive.reserve(n);
  took_step.assign(n, 0);
  if (cfg.record_paths) {
    slab.assign(static_cast<std::size_t>(n * stride), 0);
    lens.assign(n, 0);
  }
  if (cfg.count_visits) {
    local_visits.assign(num_vertices, 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Walker start = StartWalker(cfg, lo + i, num_vertices);
    rngs.push_back(start.rng);
    curs.push_back(start.cur);
    alive.push_back(static_cast<uint32_t>(i));
    if (cfg.record_paths) {
      slab[static_cast<std::size_t>(i * stride)] = start.cur;
      lens[i] = 1;
    }
    if (cfg.count_visits) {
      ++local_visits[start.cur];
    }
  }

  uint64_t steps_local = 0;
  uint64_t finished_local = 0;
  std::size_t num_alive = n;
  for (uint32_t step = 0; step < walk_length && num_alive > 0; ++step) {
    // Phase 1: resolve every live walker's next vertex into nexts[]. Draw
    // order within each walker's own stream matches the scalar engine.
    if constexpr (kBatchDraws<Store, Stepper>) {
      order.clear();
      for (std::size_t j = 0; j < num_alive; ++j) {
        const uint32_t i = alive[j];
        order.push_back((uint64_t{curs[i]} << 32) | i);
      }
      // Group same-vertex walkers; keys are unique (low bits are walker
      // ids) so plain sort is deterministic.
      std::sort(order.begin(), order.end());
      if (num_alive > 1) {
        batch_out.reserve(num_alive);
      }
      std::size_t a = 0;
      while (a < num_alive) {
        const graph::VertexId v =
            static_cast<graph::VertexId>(order[a] >> 32);
        std::size_t b = a + 1;
        while (b < num_alive &&
               static_cast<graph::VertexId>(order[b] >> 32) == v) {
          ++b;
        }
        if (b < num_alive) {
          // Warm the next group's sampler + adjacency while this group
          // resolves.
          store.PrefetchVertex(static_cast<graph::VertexId>(order[b] >> 32));
        }
        const std::size_t run = b - a;
        if (run >= MinBatchRunFor<Store>()) {
          rng_ptrs.clear();
          for (std::size_t t = a; t < b; ++t) {
            rng_ptrs.push_back(&rngs[static_cast<uint32_t>(order[t])]);
          }
          store.SampleNeighborBatch(v, rng_ptrs.data(), run,
                                    batch_out.data());
          for (std::size_t t = 0; t < run; ++t) {
            nexts[static_cast<uint32_t>(order[a + t])] = batch_out[t];
          }
        } else {
          for (std::size_t t = a; t < b; ++t) {
            const uint32_t i = static_cast<uint32_t>(order[t]);
            nexts[i] = StepperNext(stepper, curs[i], prevs[i], step, rngs[i]);
          }
        }
        a = b;
      }
    } else {
      for (std::size_t j = 0; j < num_alive; ++j) {
        if constexpr (requires(graph::VertexId v) {
                        store.PrefetchVertex(v);
                      }) {
          if (j + kPrefetchAhead < num_alive) {
            store.PrefetchVertex(curs[alive[j + kPrefetchAhead]]);
          }
        }
        const uint32_t i = alive[j];
        nexts[i] = StepperNext(stepper, curs[i], prevs[i], step, rngs[i]);
      }
    }
    // Phase 2: apply the step. Dead ends drop out silently; survivors draw
    // their Terminate variate (after their Next draws — scalar order).
    std::size_t keep = 0;
    for (std::size_t j = 0; j < num_alive; ++j) {
      const uint32_t i = alive[j];
      const graph::VertexId next = nexts[i];
      if (next == graph::kInvalidVertex) {
        continue;
      }
      prevs[i] = curs[i];
      curs[i] = next;
      ++steps_local;
      if (!took_step[i]) {
        took_step[i] = 1;
        ++finished_local;
      }
      if (cfg.record_paths) {
        slab[static_cast<std::size_t>(i * stride + lens[i])] = next;
        ++lens[i];
      }
      if (cfg.count_visits) {
        ++local_visits[next];
      }
      if (stepper.Terminate(rngs[i])) {
        continue;
      }
      alive[keep++] = i;
    }
    num_alive = keep;
  }

  tally.Add(steps_local, finished_local, local_visits);
  if (cfg.record_paths && out_paths != nullptr) {
    ChunkPaths out{util::ScratchVector<graph::VertexId>(scratch),
                   util::ScratchVector<uint64_t>(scratch)};
    uint64_t total_len = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total_len += lens[i];
    }
    out.paths.reserve(static_cast<std::size_t>(total_len));
    out.lengths.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const graph::VertexId* row = slab.data() + i * stride;
      out.paths.append(row, row + lens[i]);
      out.lengths.push_back(lens[i]);
    }
    *out_paths = std::move(out);
  }
}

}  // namespace fused_internal

// Runs `cfgs.size()` queries of one app as a single fused pass and writes
// results[q] — bit-identical to RunApp(store, cfgs[q], app, pool) — for
// each. Queries may differ in every WalkConfig field. The fused driver's
// descriptor entry point (apps.h).
template <typename Store, typename App>
  requires SamplingStore<Store>
void RunFusedApp(const Store& store, std::span<const WalkConfig> cfgs,
                 const App& app, std::span<WalkResult> results,
                 util::ThreadPool* pool = nullptr) {
  assert(results.size() == cfgs.size());
  const graph::VertexId num_vertices =
      static_cast<graph::VertexId>(store.NumVertices());
  const auto stepper = app.StepperFor(store);
  constexpr std::size_t kChunk = 256;
  // Path slabs are stride-allocated; beyond this length (PPR-capped
  // lengths, notably) the scalar engine records more compactly.
  constexpr uint32_t kMaxRecordedLength = 1024;

  struct QueryState {
    WalkConfig cfg;  // normalized
    bool fused = false;
    WalkTally tally;
    std::vector<ChunkPaths> chunks;
  };
  struct Task {
    uint32_t query;
    uint64_t lo;  // walkers [lo, hi): chunk lo / kChunk of the query
    uint64_t hi;
  };

  std::vector<QueryState> states(cfgs.size());
  std::vector<Task> tasks;
  for (std::size_t q = 0; q < cfgs.size(); ++q) {
    QueryState& state = states[q];
    state.cfg = app.Normalize(cfgs[q]);
    const WalkConfig& cfg = state.cfg;
    results[q] = WalkResult{};
    const uint64_t num_walkers = BeginWalks(cfg, num_vertices, results[q]);
    if (num_walkers == 0) {
      continue;
    }
    if (cfg.record_paths && cfg.walk_length >= kMaxRecordedLength) {
      results[q] = RunWalks(store, cfg, stepper, pool);
      continue;
    }
    state.fused = true;
    state.tally.Size(cfg, num_vertices);
    const std::size_t num_chunks =
        static_cast<std::size_t>((num_walkers + kChunk - 1) / kChunk);
    if (cfg.record_paths) {
      state.chunks.resize(num_chunks);
    }
    for (std::size_t c = 0; c < num_chunks; ++c) {
      tasks.push_back(Task{static_cast<uint32_t>(q), c * kChunk,
                           std::min<uint64_t>(num_walkers, (c + 1) * kChunk)});
    }
  }

  util::MemoryPool* scratch =
      pool != nullptr ? &pool->ScratchMemory() : nullptr;
  const auto run_task = [&](std::size_t t) {
    const Task& task = tasks[t];
    QueryState& state = states[task.query];
    fused_internal::RunFusedChunk(
        store, stepper, state.cfg, num_vertices, task.lo, task.hi, scratch,
        state.tally,
        state.cfg.record_paths ? &state.chunks[task.lo / kChunk] : nullptr);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      run_task(t);
    }
  }

  for (std::size_t q = 0; q < cfgs.size(); ++q) {
    const QueryState& state = states[q];
    if (!state.fused) {
      continue;
    }
    state.tally.Finish(results[q]);
    if (state.cfg.record_paths) {
      StitchChunks(state.chunks, kChunk, results[q]);
    }
  }
}

// The serving path's DeepWalk and PPR queries, as fused query groups.
template <SamplingStore Store>
void RunDeepWalkFused(const Store& store, std::span<const WalkConfig> cfgs,
                      std::span<WalkResult> results,
                      util::ThreadPool* pool = nullptr) {
  RunFusedApp(store, cfgs, DeepWalkApp{}, results, pool);
}

template <SamplingStore Store>
void RunPprFused(const Store& store, std::span<const WalkConfig> cfgs,
                 std::span<WalkResult> results,
                 double stop_probability = 1.0 / 80.0,
                 util::ThreadPool* pool = nullptr) {
  RunFusedApp(store, cfgs, PprApp{stop_probability}, results, pool);
}

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_FUSED_H_
