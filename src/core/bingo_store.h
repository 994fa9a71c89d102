// BingoStore: the whole-graph Bingo engine (§3 workflow).
//
// Owns the dynamic graph and one VertexSampler handle per vertex (16 bytes;
// a vertex without out-edges owns nothing more), and exposes the
// two functionalities of Fig 3: sampling (inter-group -> intra-group) and
// graph updates (streaming, one edge at a time, or batched with a single
// rebuild per touched vertex, §5.2).
//
// Versions (copy-on-write). Bingo updates are vertex-local (§4.2) and a
// vertex's sampler is a pure function of its adjacency (Theorem 4.1), so
// every mutation builds the next version from private copies of the
// vertices it touches: their adjacency slots and sampler handles live in
// paged tables (util/cow_array.h), each touched page is copied once, and
// each touched vertex gets its own adjacency block and sampler block before
// the unchanged per-vertex update code runs on it. View() hands out a
// read-only store pinned at the current version; it keeps reading exactly
// that version, bit for bit, while later batches apply. What a version
// supersedes is freed by epoch-based reclamation (util/reclaimer.h) once no
// older view is pinned. While no view is pinned at all (Views() is 0),
// nothing can read an older version, and a mutation changes its vertices in
// place instead of copying them, O(K) per update as in the paper: a bare
// store, WAL replay, and every WalkService batch that no snapshot reads
// (the service then drops its own view first, walk/service.h). Views are
// taken only between mutations.
//
// Storage. Every per-vertex byte — adjacency blocks, finders, sampler
// blocks, group and decimal payloads, and the pages of both tables — comes
// from the graph's MemoryPool (util/memory_pool.h). A superseded version
// goes back onto the pool's free lists on whichever thread frees it, and
// the next copy reuses it.

#ifndef BINGO_SRC_CORE_BINGO_STORE_H_
#define BINGO_SRC_CORE_BINGO_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/store_types.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/types.h"
#include "src/util/cow_array.h"
#include "src/util/prefetch.h"
#include "src/util/reclaimer.h"
#include "src/util/thread_pool.h"

namespace bingo::core {

class BingoStore {
 public:
  // Takes ownership of the graph and builds every vertex's sampling space.
  // `pool` parallelizes the build (nullptr = sequential).
  explicit BingoStore(graph::DynamicGraph graph, BingoConfig config = {},
                      util::ThreadPool* pool = nullptr);
  ~BingoStore();

  BingoStore(const BingoStore&) = delete;
  BingoStore& operator=(const BingoStore&) = delete;

  // --- versions -------------------------------------------------------------

  // Versions built so far: 0 after construction, +1 per mutation.
  uint64_t Version() const { return version_; }

  // A read-only store frozen at the current version. Later mutations of
  // this store never change what it reads; it must not outlive this store.
  std::unique_ptr<const BingoStore> View() const;

  // Views of this store alive right now, at every version. A mutation made
  // while this is 0 copies nothing.
  std::size_t Views() const { return reclaimer_->Views(); }

  // False once storage this view reads has been freed — which the
  // reclamation protocol never does while the view is alive. Always true
  // for the store itself.
  bool Intact() const {
    return pinned_ == nullptr || pinned_->FreedThrough() <= version_;
  }

  // Reclamation of superseded versions. A store layered over this one
  // retires the storage its own copy-on-write state supersedes here, at
  // the version that superseded it, so this store's views pin it too.
  util::EpochReclaimer& Reclaimer() const { return *reclaimer_; }

  const graph::DynamicGraph& Graph() const { return graph_; }
  // The pool all of this store's per-vertex storage comes from (its
  // graph's); a store layered over this one may draw from it too.
  util::MemoryPool& Pool() const { return graph_.Pool(); }
  const BingoConfig& Config() const { return config_; }
  uint32_t LogicalEpoch() const { return config_.logical_epoch; }

  // --- uniform store surface (src/walk/store.h concept) --------------------

  graph::VertexId NumVertices() const { return graph_.NumVertices(); }
  uint64_t NumEdges() const { return graph_.NumEdges(); }
  // Vertex ids at or past NumVertices() read as isolated: update batches
  // grow the vertex set lazily (see ApplyBatch), and in the sharded service
  // a new vertex's home shard may not have grown yet when a walk reaches
  // it — an id with no materialized slot has, by definition, no out-edges.
  bool HasEdge(graph::VertexId src, graph::VertexId dst) const {
    return src < NumVertices() && graph_.HasEdge(src, dst);
  }
  std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const {
    return v < NumVertices() ? graph_.Neighbors(v)
                             : std::span<const graph::Edge>{};
  }

  // --- sampling -----------------------------------------------------------

  // One O(1) biased neighbor draw; kInvalidVertex if v has no out-weight.
  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const {
    if (v >= samplers_.size()) {
      return graph::kInvalidVertex;  // unmaterialized vertex: no out-edges
    }
    const uint32_t idx = samplers_[v].SampleIndex(graph_.Neighbors(v), rng);
    return idx == VertexSampler::kNoNeighbor ? graph::kInvalidVertex
                                             : graph_.NeighborAt(v, idx).dst;
  }

  uint32_t SampleNeighborIndex(graph::VertexId v, util::Rng& rng) const {
    return v < samplers_.size()
               ? samplers_[v].SampleIndex(graph_.Neighbors(v), rng)
               : VertexSampler::kNoNeighbor;
  }

  // Batched draws at one vertex: out[i] is exactly what
  // SampleNeighbor(v, *rngs[i]) would return (bit-identity contract of
  // VertexSampler::SampleIndexBatch). kNoNeighbor and kInvalidVertex share
  // the same bit pattern, so the no-out-weight case passes through.
  void SampleNeighborBatch(graph::VertexId v, util::Rng* const* rngs,
                           std::size_t n, graph::VertexId* out) const {
    if (v >= samplers_.size()) {
      std::fill(out, out + n, graph::kInvalidVertex);
      return;
    }
    const std::span<const graph::Edge> adj = graph_.Neighbors(v);
    samplers_[v].SampleIndexBatch(adj, rngs, n, out);
    static_assert(VertexSampler::kNoNeighbor == graph::kInvalidVertex);
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] != VertexSampler::kNoNeighbor) {
        out[i] = adj[out[i]].dst;
      }
    }
  }

  // Advisory prefetch of v's sampler block and adjacency head, so a fused
  // walk pass can hide the pointer chase of the next step's draw.
  void PrefetchVertex(graph::VertexId v) const {
    if (v >= samplers_.size()) {
      return;
    }
    samplers_[v].Prefetch();
    graph_.PrefetchVertex(v);
  }

  // --- streaming updates (§4.2) -------------------------------------------
  //
  // Each call is one copy-on-write version, like a one-vertex ApplyBatch.

  // Legacy form: counter-stamped, no pipeline composition (static-bias
  // workloads and the pre-temporal tests).
  void StreamingInsert(graph::VertexId src, graph::VertexId dst, double bias);

  // Update-path form: the edge is stamped `timestamp` and its stored bias
  // is the pipeline composition static × decay × gate at the store's
  // current logical epoch.
  void StreamingInsert(graph::VertexId src, graph::VertexId dst, double bias,
                       uint32_t timestamp);

  // Deletes the earliest surviving copy of (src -> dst); false if absent.
  bool StreamingDelete(graph::VertexId src, graph::VertexId dst);

  // Overwrites the bias of the earliest surviving copy of (src -> dst).
  // O(K): the edge keeps its neighbor index; only its group memberships
  // change (§4.2 "updating the edge bias ... supported straightforwardly").
  bool UpdateBias(graph::VertexId src, graph::VertexId dst, double bias);

  // Removes every out-edge of `v` in one batched operation (the out-half
  // of the paper's vertex-deletion event; in-edges are per-source events).
  // Returns the number of removed edges.
  uint32_t DeleteVertexOutEdges(graph::VertexId v);

  // Grows the vertex set; new vertices start isolated.
  void AddVertices(graph::VertexId count);

  // Applies a mixed stream one update at a time (the Fig 12 baseline).
  BatchResult ApplyUpdatesStreaming(const graph::UpdateList& updates);

  // Advances the logical epoch (temporal decay). Every stored bias picks up
  // decay^(age delta) and its vertex re-buckets — the "effective bias can
  // change without an insert/delete" half of the pipeline contract. No-op
  // when new_epoch <= current. Normally reached via a kAdvanceTime update
  // inside ApplyBatch so journaling/recovery see an ordinary batch.
  void AdvanceEpoch(uint32_t new_epoch, util::ThreadPool* pool = nullptr);

  // --- batched updates (§5.2) ---------------------------------------------

  // Reorders by vertex, then runs insert -> delete -> rebuild per vertex in
  // parallel, each on a private copy of the vertex; the inter-group space
  // of each touched vertex is rebuilt once. One version (two when the
  // batch carries a clock tick: the rescale is its own).
  BatchResult ApplyBatch(const graph::UpdateList& updates,
                         util::ThreadPool* pool = nullptr);

  // --- introspection --------------------------------------------------------

  const VertexSampler& SamplerAt(graph::VertexId v) const { return samplers_[v]; }

  // What a mutation of v alone supersedes, and so the most a pinned view
  // can hold back per such mutation: v's adjacency block, finder and
  // sampler block, and the two table pages that hold its slot and handle.
  // MemoryStats().retired_bytes sums what pinned views hold back.
  std::size_t VersionBytes(graph::VertexId v) const {
    return graph_.VertexBytes(v) + samplers_[v].MemoryBreakdown().Total() +
           graph::DynamicGraph::kPageBytes + sizeof(SamplerTable::Page);
  }

  StoreMemoryStats MemoryStats() const;
  std::size_t MemoryBytes() const { return MemoryStats().TotalBytes(); }

  // Aggregated group-kind population (Fig 11e).
  std::array<uint64_t, 5> CountGroupKinds() const;

  ConversionStats& Conversions() { return conversion_stats_; }

  // Audits every vertex; returns the first inconsistency or empty.
  std::string CheckInvariants() const;

 private:
  using SamplerTable = util::CowArray<VertexSampler, 6>;  // 1 KiB pages

  struct ViewTag {};
  BingoStore(ViewTag, const BingoStore& origin);

  // One copy-on-write step: builds version Version() + 1. Each vertex of
  // `vertices` (ascending, distinct) gets a private page and a private
  // copy of its adjacency and sampler; then `write(lo, hi)` mutates the
  // copies of vertices[lo, hi), chunks in parallel on `pool`. The
  // originals are retired to the reclaimer. With no view pinned, `write`
  // mutates the vertices in place.
  template <typename Fn>
  void WriteVertices(std::span<const graph::VertexId> vertices,
                     util::ThreadPool* pool, std::size_t grain, Fn&& write);

  void ApplyVertexBatch(graph::VertexId v, const graph::UpdateList& updates,
                        std::span<const uint32_t> update_indices,
                        BatchResult& result);

  // The store's reclaimer (also referenced by its views), or null for a
  // view; a view pins its version on `pinned_`. Declared first so that it
  // is destroyed after the tables and the graph's memory pool.
  std::unique_ptr<util::EpochReclaimer> own_reclaimer_;
  util::EpochReclaimer* reclaimer_ = nullptr;
  util::EpochReclaimer* pinned_ = nullptr;
  BingoConfig config_;  // owned copy; conversion_stats points into this object
  ConversionStats conversion_stats_;
  graph::DynamicGraph graph_;
  SamplerTable samplers_;
  uint64_t version_ = 0;
};

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_BINGO_STORE_H_
