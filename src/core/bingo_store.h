// BingoStore: the whole-graph Bingo engine (§3 workflow).
//
// Owns the dynamic graph and one VertexSampler handle per vertex (16 bytes;
// a vertex without out-edges owns nothing more), and exposes the
// two functionalities of Fig 3: sampling (inter-group -> intra-group) and
// graph updates (streaming, one edge at a time, or batched with a single
// rebuild per touched vertex, §5.2).

#ifndef BINGO_SRC_CORE_BINGO_STORE_H_
#define BINGO_SRC_CORE_BINGO_STORE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/store_types.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/types.h"
#include "src/util/prefetch.h"
#include "src/util/thread_pool.h"

namespace bingo::core {

class BingoStore {
 public:
  // Takes ownership of the graph and builds every vertex's sampling space.
  // `pool` parallelizes the build (nullptr = sequential).
  explicit BingoStore(graph::DynamicGraph graph, BingoConfig config = {},
                      util::ThreadPool* pool = nullptr);

  BingoStore(const BingoStore&) = delete;
  BingoStore& operator=(const BingoStore&) = delete;

  const graph::DynamicGraph& Graph() const { return graph_; }
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
  // parallel; the inter-group space of each touched vertex is rebuilt once.
  BatchResult ApplyBatch(const graph::UpdateList& updates,
                         util::ThreadPool* pool = nullptr);

  // --- introspection --------------------------------------------------------

  const VertexSampler& SamplerAt(graph::VertexId v) const { return samplers_[v]; }

  StoreMemoryStats MemoryStats() const;
  std::size_t MemoryBytes() const { return MemoryStats().TotalBytes(); }

  // Aggregated group-kind population (Fig 11e).
  std::array<uint64_t, 5> CountGroupKinds() const;

  ConversionStats& Conversions() { return conversion_stats_; }

  // Audits every vertex; returns the first inconsistency or empty.
  std::string CheckInvariants() const;

 private:
  void ApplyVertexBatch(graph::VertexId v, const graph::UpdateList& updates,
                        std::span<const uint32_t> update_indices,
                        BatchResult& result);

  BingoConfig config_;  // owned copy; conversion_stats points into this object
  ConversionStats conversion_stats_;
  graph::DynamicGraph graph_;
  std::vector<VertexSampler> samplers_;
};

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_BINGO_STORE_H_
