// Hornet-style dynamic graph storage (substitution S5 in DESIGN.md).
//
// Each vertex owns a dynamic adjacency array carved out of a size-class
// MemoryPool. A block's capacity fills its pool size class: the bulk load
// takes the class that holds the vertex's degree, and growth moves to the
// class that holds at least 1.5x the old capacity. Deletion is swap-with-tail so
// adjacency arrays stay compact, which is what gives the per-vertex Bingo
// sampler O(1) unbiased intra-group sampling over neighbor *indices*.
//
// The "neighbor index" of an edge is its position in the adjacency array of
// its source vertex. Swap-with-tail renames one index per deletion; callers
// that mirror neighbor indices (the Bingo groups) receive the rename via
// SwapRemoveResult and patch their structures in O(popcount(bias)).
//
// High-degree vertices additionally keep an open-addressing (dst -> index)
// finder so that delete-by-endpoint and node2vec's distance(w, v) adjacency
// probes run in O(1) expected time; low-degree vertices fall back to a
// linear scan over the (short) adjacency array. The finder is one table
// that fills its pool size class, at a load of at most 1/2 when it is
// (re)built. FindEarliest reads every slot up to the first empty one (it
// wants the earliest of all duplicates); HasEdge stops at the first live
// copy and reads no edge. node2vec calls HasEdge on every step and most
// calls miss, and a miss reads the whole probe run, so the build load is
// kept at 1/2: at 2/3 the table is a quarter smaller, but HasEdge over the
// calls of a node2vec walk on the benchmark graph took about 1.4x as long
// (GCC -O3, 4-vCPU x86 VM).
//
// Versions: the per-vertex slots live in a paged copy-on-write table
// (util/cow_array.h). View() is a read-only graph that keeps reading the
// state it was taken at; a writer that must not disturb its views first
// gives each vertex it changes a private page (ClonePage) and a private
// copy of its adjacency block and finder (CloneVertex), and frees the
// superseded storage (Free) once no view can read it. A graph that never
// hands out views mutates in place.

#ifndef BINGO_SRC_GRAPH_DYNAMIC_GRAPH_H_
#define BINGO_SRC_GRAPH_DYNAMIC_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/graph/types.h"
#include "src/util/cow_array.h"
#include "src/util/memory_pool.h"
#include "src/util/prefetch.h"

namespace bingo::graph {

class Csr;

class DynamicGraph {
 private:
  // Open-addressing multi-map from dst to neighbor index, linear probing
  // with tombstones. Created once a vertex's degree reaches
  // kFinderThreshold. One pooled block that fills its size class: this
  // 8-byte header, then `capacity` entries (any count; a probe starts at a
  // multiply-shift range reduction of the dst hash). It holds one live
  // entry per edge, so the vertex degree is its live count.
  struct Finder {
    struct Entry {
      VertexId dst;
      uint32_t index;
    };
    static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
    static constexpr uint32_t kTombstone = 0xFFFFFFFEu;

    uint32_t capacity;
    uint32_t used;  // live + tombstones

    Entry* Entries() { return reinterpret_cast<Entry*>(this + 1); }
    const Entry* Entries() const {
      return reinterpret_cast<const Entry*>(this + 1);
    }
    // First slot a probe for `dst` reads, and the slot after `pos`.
    std::size_t Home(VertexId dst) const;
    std::size_t Next(std::size_t pos) const {
      return pos + 1 == capacity ? 0 : pos + 1;
    }
    std::size_t Bytes() const { return BytesFor(capacity); }
    static std::size_t BytesFor(std::size_t capacity) {
      return sizeof(Finder) + capacity * sizeof(Entry);
    }
    // The capacity of a table that fills its size class and holds `live`
    // entries at a load of at most 1/2.
    static uint32_t CapacityFor(std::size_t live);
    // Drops the entry (dst, index) / re-points it; false if absent.
    bool Erase(VertexId dst, uint32_t index);
    bool Reindex(VertexId dst, uint32_t old_index, uint32_t new_index);
  };

  // A trivially copyable handle: page copies alias the block and finder;
  // the graph that owns the pages frees them.
  struct Slot {
    Edge* edges = nullptr;
    uint32_t size = 0;
    uint32_t capacity = 0;
    Finder* finder = nullptr;
  };

  using SlotTable = util::CowArray<Slot, 6>;  // 64 slots (1.5 KiB) a page

 public:
  // Result of a swap-with-tail removal. If `moved` is true, the edge that
  // previously lived at neighbor index `moved_from` (the old tail) now lives
  // at the index that was removed.
  struct SwapRemoveResult {
    Edge removed;
    bool moved = false;
    uint32_t moved_from = 0;
    uint32_t moved_to = 0;
    Edge moved_edge;  // post-move copy, for group re-pointing
  };

  // `pool` is where every per-vertex byte comes from; null gives the graph
  // a pool of its own. Graphs that share a pool reuse each other's freed
  // blocks.
  explicit DynamicGraph(VertexId num_vertices,
                        std::shared_ptr<util::MemoryPool> pool = nullptr);
  // Frees every block this graph owns; a view owns none.
  ~DynamicGraph();

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;
  DynamicGraph(DynamicGraph&&) noexcept;
  DynamicGraph& operator=(DynamicGraph&&) noexcept;

  // Bulk-loads from a weighted edge list (biases preserved).
  static DynamicGraph FromEdges(VertexId num_vertices, const WeightedEdgeList& edges,
                                std::shared_ptr<util::MemoryPool> pool = nullptr);

  // Bulk-loads from CSR with per-edge biases (parallel arrays).
  static DynamicGraph FromCsr(const Csr& csr, std::span<const double> biases);

  VertexId NumVertices() const { return static_cast<VertexId>(slots_.size()); }
  uint64_t NumEdges() const { return num_edges_.load(std::memory_order_relaxed); }

  uint32_t Degree(VertexId v) const { return slots_[v].size; }

  // Edges v's adjacency block has room for before it must grow.
  uint32_t Capacity(VertexId v) const { return slots_[v].capacity; }

  std::span<const Edge> Neighbors(VertexId v) const {
    const Slot& s = slots_[v];
    return {s.edges, s.size};
  }

  const Edge& NeighborAt(VertexId v, uint32_t index) const {
    return slots_[v].edges[index];
  }

  // Hints the hardware prefetcher at v's slot header and the head of its
  // adjacency block. Used by the fused walk passes to hide the pointer
  // chase of the *next* step while the current one computes (§ batched
  // serving). Safe for any v < NumVertices(); purely advisory.
  void PrefetchVertex(VertexId v) const {
    const Slot& s = slots_[v];
    util::PrefetchRead(&s);
    if (s.edges != nullptr) {
      util::PrefetchReadRange(s.edges, s.size * sizeof(Edge));
    }
  }

  // Appends edge (src -> dst, bias); returns its neighbor index. O(1)
  // amortized; growth allocates a block of at least 1.5x the capacity
  // from the pool.
  // Stamps the edge with the internal insertion counter.
  uint32_t Insert(VertexId src, VertexId dst, double bias);

  // Same, with an explicit timestamp (logical epoch from an Update). Equal
  // timestamps are legal; FindEarliest/CollectMatches break ties by the
  // current neighbor index, which is a deterministic function of the update
  // sequence.
  uint32_t Insert(VertexId src, VertexId dst, double bias, uint32_t timestamp);

  // Removes the edge at `index` by swapping the tail into its place.
  // O(1) plus the finder patch. Index must be < Degree(src).
  SwapRemoveResult SwapRemove(VertexId src, uint32_t index);

  // Index of the earliest-inserted surviving copy of (src -> dst), if any.
  // O(1) expected with the finder, O(d) for low-degree vertices.
  std::optional<uint32_t> FindEarliest(VertexId src, VertexId dst) const;

  // All neighbor indices of src currently pointing at dst, sorted by
  // insertion timestamp (earliest first). Batched deletion resolves
  // duplicate-edge requests against this list (§5.2).
  std::vector<uint32_t> CollectMatches(VertexId src, VertexId dst) const;

  // One adjacency move produced by a batched removal: the edge moved from
  // neighbor index `from` to `to`.
  struct MoveRecord {
    uint32_t from;
    uint32_t to;
    Edge edge;
  };

  // Removes all edges at `sorted_idxs` (ascending, unique) using the
  // two-phase delete-and-swap of Fig 10(b): tail-window survivors fill the
  // front holes, so no filler is itself deleted. Returns the moves so
  // callers can re-point mirrored structures.
  std::vector<MoveRecord> BatchSwapRemove(VertexId src,
                                          std::span<const uint32_t> sorted_idxs);

  // True if an edge (src -> dst) currently exists. Used by node2vec's
  // distance test.
  bool HasEdge(VertexId src, VertexId dst) const;

  // Grows the vertex set (new vertices start with empty adjacency).
  void AddVertices(VertexId count);

  // Overwrites the bias of the edge at `index` (bias update event).
  void SetBias(VertexId src, uint32_t index, double bias) {
    MarkModified();
    slots_[src].edges[index].bias = bias;
  }

  // True when this graph is bit-identical to the bulk load of its own
  // canonical edge list (vertex-major, per-vertex stable timestamp order;
  // see core::CanonicalEdgeList): no edge was inserted, removed or
  // re-biased since FromEdges, and every vertex's adjacency is already in
  // non-decreasing timestamp order. The bulk load then reproduces the same
  // adjacency order, block capacities, finders and insertion counter
  // (FromEdges resumes it past the maximum timestamp of the same edges).
  // O(E) scan.
  bool IsCanonical() const;

  // Bytes the slot pages, adjacency blocks and finders take from the pool,
  // each at its pool size class.
  std::size_t MemoryBytes() const;

  // Bytes of v's adjacency block and finder, at their pool size class.
  std::size_t VertexBytes(VertexId v) const { return SlotBytes(slots_[v]); }

  // The pool every per-vertex byte of this graph comes from: adjacency
  // blocks, finders and slot pages. Shared with its views, and with the
  // sampler storage of a store built on it. Thread-safe.
  util::MemoryPool& Pool() const { return *pool_; }

  // --- copy-on-write versions --------------------------------------------

  // A read-only graph over this graph's current state: it shares every page
  // and block and owns none, so whatever it reads must stay alive (Free
  // only what no view can read) and it must not outlive this graph.
  DynamicGraph View() const;

  // Storage that ClonePage/CloneVertex superseded: reachable from views
  // taken before them, from nothing written after.
  class Retired {
   public:
    std::size_t Bytes() const { return bytes_; }
    void Append(Retired&& other);

   private:
    friend class DynamicGraph;
    std::vector<SlotTable::Page*> pages_;
    std::vector<Slot> slots_;
    std::size_t bytes_ = 0;
  };

  // Makes the page holding v private to `version` (the version its writer
  // is building), copying a page an earlier version made. Not thread-safe:
  // call it for every vertex before a parallel phase writes them.
  void ClonePage(VertexId v, uint64_t version, Retired& retired);

  // Gives v its own copy of its adjacency block (same capacity) and finder.
  // Its page must be private. Distinct vertices may be cloned in parallel.
  void CloneVertex(VertexId v, Retired& retired);

  // Frees superseded storage; no view may read it any more.
  void Free(Retired& retired);

  // Bytes of one slot page (what ClonePage copies).
  static constexpr std::size_t kPageBytes = sizeof(SlotTable::Page);

 private:
  static constexpr uint32_t kFinderThreshold = 32;

  DynamicGraph() = default;  // View()
  // Adjacency block and finder bytes of one slot, at pool size class.
  static std::size_t SlotBytes(const Slot& slot);
  // The capacity of an adjacency block that fills the pool size class
  // holding `edges` edges.
  static uint32_t BlockCapacity(std::size_t edges);
  void FreeSlot(const Slot& slot);
  void Grow(Slot& slot);
  void EnsureFinder(VertexId v);
  // A finder sized by Finder::CapacityFor(live), holding the live entries
  // of `from` (if any), which it frees.
  Finder* RebuildFinder(Finder* from, std::size_t live);
  void FinderInsert(Slot& slot, VertexId dst, uint32_t index);
  // Check-then-store keeps the line shared once the flag is down, since
  // batched updates mutate disjoint vertices in parallel.
  void MarkModified() {
    if (unmodified_.load(std::memory_order_relaxed)) {
      unmodified_.store(false, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<util::MemoryPool> pool_;  // shared with views
  SlotTable slots_;
  // Atomic so that batched updates may mutate disjoint vertices in
  // parallel; per-vertex state itself is never shared across workers.
  std::atomic<uint64_t> num_edges_{0};
  std::atomic<uint32_t> next_timestamp_{0};
  // No edge inserted, removed or re-biased since construction/bulk load.
  // Growing the vertex set keeps it: new vertices are empty either way.
  std::atomic<bool> unmodified_{true};
};

}  // namespace bingo::graph

#endif  // BINGO_SRC_GRAPH_DYNAMIC_GRAPH_H_
