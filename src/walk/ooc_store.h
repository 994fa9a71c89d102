// TieredStore: the out-of-core walk store — an mmap-backed immutable CSR
// base tier (graph/csr_mmap.h) under a dynamic BingoStore overlay, glued by
// the walk-aware block cache (core/block_cache.h).
//
// Tiering rule: a vertex starts on the base tier (its adjacency is the CSR
// file's edge run). The first ApplyBatch update touching a base vertex
// *promotes* it — its base edges are folded into the overlay as synthetic
// inserts (original biases and timestamps, canonical order) ahead of the
// real updates, in one overlay batch — after which the overlay alone owns
// that vertex. New vertices beyond the CSR's range live on the overlay from
// birth. ApplyBatch semantics (duplicate-edge deletion rule, batch results,
// vertex growth, epoch ticks) are therefore exactly the overlay store's.
//
// Sampling semantics: exact inverse-transform sampling over the adjacency
// in canonical order — ONE NextUnit() variate per successful draw, zero on
// dead ends — for base and promoted vertices alike. Base draws scan the
// CSR edge run against the file's precomputed per-vertex bias total (the
// writer accumulated it in the same order, so the ITS is exact); promoted
// draws scan the overlay adjacency. This is deliberately its *own* sampler
// semantics (like the alias/ITS baseline stores): bit-identity holds
// between any two TieredStore walks of the same history — across cache
// budgets, thread counts, and drivers — not against the radix BingoStore.
//
// Residency contract (see block_cache.h): with no budget, any thread may
// demand-fault a block; with a budget, only the out-of-core scheduler maps
// and evicts between passes, and transparent reads of non-resident blocks
// go through pread into a per-thread buffer. NeighborsOf spans over base
// vertices are valid until the calling thread's next base-edge access to a
// *different* vertex (HasEdge deliberately uses a separate stack buffer so
// node2vec's probe loop never invalidates the span it holds).
//
// Versions: the store is copy-on-write like its overlay. ApplyBatch builds
// the overlay's next version and copies the pages of the promoted set it
// changes; View() pins both, with the live-edge count of that version, over
// the same (immutable) base tier. Superseded promoted-set pages retire
// through the overlay's reclaimer, so the overlay's views pin them too.
//
// Constraints: the bias pipeline must be identity (base biases are
// pre-composed into the file; a decay/type gate would need to re-compose
// tiered edges it cannot reach), enforced by Open. AdvanceTime ticks pass
// through to the overlay, where — given the identity pipeline — they are
// bias no-ops.

#ifndef BINGO_SRC_WALK_OOC_STORE_H_
#define BINGO_SRC_WALK_OOC_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/bingo_store.h"
#include "src/core/block_cache.h"
#include "src/graph/csr_mmap.h"
#include "src/graph/types.h"
#include "src/util/cow_array.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace bingo::walk {

struct TieredStoreOptions {
  // Block-cache resident-byte budget; 0 = unconstrained (demand-map all).
  std::size_t memory_budget_bytes = 0;
  bool verify_crc = true;
};

class TieredStore {
 public:
  // Construct via Open(); a default-constructed store is empty and unusable.
  TieredStore() = default;

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  // Opens a CSR container and mounts an empty overlay over it. Fails (with
  // a message) on a corrupt container or a non-identity bias pipeline.
  static std::unique_ptr<TieredStore> Open(const std::string& csr_path,
                                           core::BingoConfig config = {},
                                           TieredStoreOptions options = {},
                                           util::ThreadPool* pool = nullptr,
                                           std::string* error = nullptr);

  // A read-only store frozen at the current version (walk/store.h
  // VersionedStore); it must not outlive this store.
  std::unique_ptr<const TieredStore> View() const;
  bool Intact() const { return overlay_->Intact(); }
  // Views of this store alive right now (each pins one overlay view).
  std::size_t Views() const { return overlay_->Views(); }

  // ---- WalkStore / BatchSamplingStore / AdjacencyStore surface ----

  graph::VertexId NumVertices() const { return overlay_->NumVertices(); }
  uint64_t NumEdges() const { return base_live_edges_ + overlay_->NumEdges(); }

  graph::VertexId SampleNeighbor(graph::VertexId v, util::Rng& rng) const;
  // out[i] is bit-identical to SampleNeighbor(v, *rngs[i]) in sequence; the
  // base-edge run is fetched once for the whole lane batch.
  void SampleNeighborBatch(graph::VertexId v, util::Rng* const* rngs,
                           std::size_t n, graph::VertexId* out) const;
  void PrefetchVertex(graph::VertexId v) const;

  bool HasEdge(graph::VertexId src, graph::VertexId dst) const;
  std::span<const graph::Edge> NeighborsOf(graph::VertexId v) const;

  core::BatchResult ApplyBatch(const graph::UpdateList& updates,
                               util::ThreadPool* pool = nullptr);
  core::StoreMemoryStats MemoryStats() const;
  std::string CheckInvariants() const;

  // One block fetch amortizes even short fused runs on this store.
  static constexpr std::size_t kMinBatchRun = 2;

  // ---- block scheduling surface (walk/ooc.h driver) ----

  // CSR blocks 0..csr blocks-1, plus one virtual always-resident RAM block
  // holding every promoted and overlay-born vertex.
  uint32_t NumBlocks() const { return tier_->csr.NumBlocks() + 1; }
  uint32_t RamBlock() const { return tier_->csr.NumBlocks(); }
  uint32_t BlockOf(graph::VertexId v) const {
    if (Promoted(v)) {
      return RamBlock();
    }
    return tier_->csr.BlockOfVertex(v);
  }
  bool Budgeted() const { return tier_->cache->Budgeted(); }

  // Scheduler hooks: map (evicting under budget) + pin, unpin, rank input,
  // rank query. All no-ops / -1 for the virtual RAM block.
  bool PrepareBlock(uint32_t b) const;
  void FinishBlockPass(uint32_t b) const;
  void SetParked(uint32_t b, uint64_t walkers) const;
  int64_t PickNextBlock() const { return tier_->cache->PickNext(); }
  core::BlockCacheStats CacheStats() const { return tier_->cache->Stats(); }

  // At most one out-of-core driver may run on a budgeted store at a time
  // (eviction between its passes would yank blocks from under a concurrent
  // pass). Engine and fused walks are always safe concurrently.
  bool TryBeginExclusiveWalk() const {
    return !tier_->exclusive_walk.exchange(true, std::memory_order_acquire);
  }
  void EndExclusiveWalk() const {
    tier_->exclusive_walk.store(false, std::memory_order_release);
  }

  // ---- introspection ----

  const graph::CsrMmap& Csr() const { return tier_->csr; }
  const core::BingoStore& Overlay() const { return *overlay_; }
  uint64_t BaseLiveEdges() const { return base_live_edges_; }
  uint64_t PromotedVertices() const { return promoted_count_; }

 private:
  // The immutable base tier and its cache, shared by the store and its
  // views.
  struct Tier {
    graph::CsrMmap csr;
    std::unique_ptr<core::BlockCache> cache;  // holds &csr: the tier is pinned
    uint64_t uid = 0;  // keys the per-thread pread buffer across tiers
    std::atomic<bool> exclusive_walk{false};
    std::atomic<bool> io_failed{false};
  };
  using PromotedSet = util::CowArray<uint8_t, 12>;  // 4 KiB pages

  bool Promoted(graph::VertexId v) const {
    return v >= tier_->csr.NumVertices() || promoted_[v] != 0;
  }
  // The base-tier edge run of an unpromoted vertex: resident block span,
  // transparent demand-map (unconstrained), or per-thread pread buffer
  // (budgeted, non-resident).
  std::span<const graph::Edge> BaseEdgesFor(graph::VertexId v) const;

  std::shared_ptr<Tier> tier_;
  // Reads go through overlay_ (the live overlay, or a view of it); writes
  // through writer_, null for a view.
  std::shared_ptr<const core::BingoStore> overlay_;
  core::BingoStore* writer_ = nullptr;
  PromotedSet promoted_;  // per base vertex
  uint64_t base_live_edges_ = 0;
  uint64_t promoted_count_ = 0;
};

}  // namespace bingo::walk

#endif  // BINGO_SRC_WALK_OOC_STORE_H_
