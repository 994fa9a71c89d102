// The store concept: the seam between sampler backends and the walk stack.
//
// Every backend — core::BingoStore, the alias/ITS/rejection baseline stores
// (walk/baseline_stores.h), and the sharded PartitionedBingoStore
// (walk/partitioned.h) — models WalkStore, so the engine (walk/engine.h),
// the applications (walk/apps.h), the analytics (walk/analytics.h), the
// incremental corpus (walk/incremental.h), the WalkService front-end
// (walk/service.h), the CLI, and the benchmark harnesses are written once
// against this surface and run unchanged on any backend.
//
// Determinism contract: a store must be a pure function of (initial edges,
// applied updates) — SampleNeighbor(v, rng) may consume any number of
// variates from `rng` but must not depend on hidden mutable state. Together
// with the engine's per-walker RNG streams this makes every workload
// bit-reproducible on each backend for any thread count, and bit-identical
// across backends that share sampler semantics (e.g. BingoStore vs.
// PartitionedBingoStore at any shard count, whose per-vertex samplers see
// the same adjacency). Backends with different sampling algorithms map the
// same RNG stream to different — identically distributed — choices.

#ifndef BINGO_SRC_WALK_STORE_H_
#define BINGO_SRC_WALK_STORE_H_

#include <concepts>
#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "src/core/store_types.h"
#include "src/graph/types.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace bingo::walk {

// Minimal surface required to drive first-order walks. SampleNeighbor
// returns kInvalidVertex on dead ends. The walk engine and applications
// constrain on this (or AdjacencyStore), so ad-hoc instrumented stores in
// the benchmark harnesses stay cheap to write.
template <typename S>
concept SamplingStore =
    requires(const S& cs, graph::VertexId v, util::Rng& rng) {
      { cs.SampleNeighbor(v, rng) } -> std::same_as<graph::VertexId>;
      { cs.NumVertices() } -> std::convertible_to<graph::VertexId>;
    };

// Stores that additionally expose a lane-batched draw — out[i] must be
// bit-identical to SampleNeighbor(v, *rngs[i]) evaluated sequentially —
// plus an advisory prefetch hook. The fused walk passes (walk/fused.h) use
// these when present and fall back to per-walker SampleNeighbor otherwise,
// so modeling this concept is an optimization, never a requirement.
template <typename S>
concept BatchSamplingStore =
    SamplingStore<S> &&
    requires(const S& cs, graph::VertexId v, util::Rng* const* rngs,
             std::size_t n, graph::VertexId* out) {
      { cs.SampleNeighborBatch(v, rngs, n, out) };
      { cs.PrefetchVertex(v) };
    };

// Stores that can additionally answer adjacency probes: needed by
// node2vec's distance test (HasEdge) and uniform sampling (NeighborsOf).
template <typename S>
concept AdjacencyStore =
    SamplingStore<S> &&
    requires(const S& cs, graph::VertexId v) {
      { cs.HasEdge(v, v) } -> std::same_as<bool>;
      { cs.NeighborsOf(v) } -> std::convertible_to<std::span<const graph::Edge>>;
    };

// The full store surface: sampling plus batched dynamic updates and
// introspection. Every shipped backend models this; WalkService, the CLI,
// and the benchmark harnesses are written against it.
template <typename S>
concept WalkStore =
    SamplingStore<S> &&
    requires(const S& cs, S& s, const graph::UpdateList& updates,
             util::ThreadPool* pool) {
      { s.ApplyBatch(updates, pool) } -> std::same_as<core::BatchResult>;
      { cs.MemoryStats() } -> std::same_as<core::StoreMemoryStats>;
      { cs.CheckInvariants() } -> std::same_as<std::string>;
    };

// Stores that version themselves copy-on-write: every mutation builds a new
// version, View() returns a read-only store pinned at the current one
// (immutable for its lifetime; it must not outlive its store),
// Intact() reports that nothing the view reads has been reclaimed, and
// Views() counts the live views; a mutation made while it is 0 is applied
// in place. WalkService serves any such store from one copy
// (walk/service.h).
template <typename S>
concept VersionedStore =
    WalkStore<S> && requires(const S& cs) {
      { cs.View() } -> std::same_as<std::unique_ptr<const S>>;
      { cs.Intact() } -> std::same_as<bool>;
      { cs.Views() } -> std::same_as<std::size_t>;
    };

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_STORE_H_
