// Per-vertex Bingo sampling structure (§4, §5.1).
//
// Holds the radix groups of one vertex plus the inter-group alias table and
// (for floating-point biases) the decimal group. Hierarchical sampling:
//   stage (i)  alias-sample a group (O(1));
//   stage (ii) uniform pick inside the group (O(1)), or rejection on the
//              adjacency array for dense groups, or decimal-group sampling.
// Streaming insert/delete cost O(K) — the radix decomposition touches one
// entry per set bit plus a K-entry alias rebuild.
//
// The sampler never owns adjacency data; every operation receives the
// source vertex's adjacency span (the graph is the single source of truth,
// and dense-group rejection reads biases straight from it).
//
// Memory layout: a VertexSampler is a 16-byte, trivially copyable handle
// (config pointer plus block pointer). A vertex without out-weight has no
// block. Otherwise its block is one allocation from the configured
// MemoryPool (BingoConfig::pool) holding, contiguously:
//   * a 16-byte header (the presence mask of radix positions, counts);
//   * the inter-group alias table, prob[] (double) and alias[] (uint32);
//   * the slot map, slot -> radix position (int8, -1 = decimal group);
//   * one 16-byte RadixGroup header per non-empty radix group, ascending k;
//   * the 16-byte DecimalGroup header, only when the vertex has fractional
//     weight.
// Group and decimal payloads come from the same pool. Empty radix positions are packed out: a 64-bit presence mask says which
// positions have a header, and popcount below k finds it. Alias slot s is
// header s (the non-empty groups in ascending k, as the inter-group table
// has always been ordered), and the decimal group takes the last slot.
//
// Ownership is explicit, as for a raw pointer: copying a handle aliases the
// block (the page copies of a copy-on-write vertex table do exactly that),
// Clone() makes an independent deep copy, and whoever owns the block frees
// it with Release().

#ifndef BINGO_SRC_CORE_VERTEX_SAMPLER_H_
#define BINGO_SRC_CORE_VERTEX_SAMPLER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/bias_pipeline.h"
#include "src/core/decimal_group.h"
#include "src/core/groups.h"
#include "src/core/radix.h"
#include "src/graph/types.h"
#include "src/sampling/alias_table.h"
#include "src/util/memory_pool.h"
#include "src/util/prefetch.h"
#include "src/util/rng.h"

namespace bingo::core {

// Counts group-kind conversions (Table 4). Shared across vertices; batched
// updates increment concurrently.
struct ConversionStats {
  // counts[from][to], indexed by GroupKind. kEmpty rows/cols count group
  // births and deaths.
  std::array<std::array<std::atomic<uint64_t>, 5>, 5> counts{};

  void Record(GroupKind from, GroupKind to) {
    counts[static_cast<int>(from)][static_cast<int>(to)].fetch_add(
        1, std::memory_order_relaxed);
  }
  uint64_t Get(GroupKind from, GroupKind to) const {
    return counts[static_cast<int>(from)][static_cast<int>(to)].load(
        std::memory_order_relaxed);
  }
};

struct BingoConfig {
  AdaptiveConfig adaptive;  // GA vs BS and the alpha/beta thresholds
  double lambda = 1.0;      // amortization factor (§4.3); 1.0 for integers
  DecimalGroup::Policy decimal_policy = DecimalGroup::Policy::kRejection;
  ConversionStats* conversion_stats = nullptr;  // optional, for Table 4
  // Composable bias pipeline (decay × type gate). Static configuration:
  // part of the snapshot config fingerprint.
  BiasPipeline pipeline;
  // Current logical epoch. Mutable temporal state, NOT fingerprinted: it
  // advances via graph::MakeAdvanceTime batches and round-trips through the
  // snapshot header on recovery.
  uint32_t logical_epoch = 0;
  // Where every sampler block and group payload is allocated. A BingoStore
  // points its own copy at its graph's pool; a standalone sampler needs
  // one set the same way. Not fingerprinted.
  util::MemoryPool* pool = nullptr;
};

// Memory attribution for Fig 11. Total() is every byte the vertex owns
// behind its handle: its block plus the group and decimal payloads, each
// at the pool size class it takes.
struct VertexMemoryBreakdown {
  // Sparse/regular member lists and inverted indexes, indexed by GroupKind
  // (dense, one-element and empty groups own no payload).
  std::array<std::size_t, 5> group_bytes{};
  // Fixed parts of the block: its own header (with alignment padding and
  // the slack up to its size class), the 16-byte group headers and the
  // decimal group's 16-byte header.
  std::size_t header_bytes = 0;
  std::size_t decimal_bytes = 0;  // the decimal group's member arrays
  std::size_t alias_bytes = 0;    // inter-group prob[], alias[], slot map

  std::size_t Total() const {
    std::size_t t = header_bytes + decimal_bytes + alias_bytes;
    for (std::size_t b : group_bytes) {
      t += b;
    }
    return t;
  }
  VertexMemoryBreakdown& operator+=(const VertexMemoryBreakdown& other);
};

class VertexSampler {
 public:
  static constexpr uint32_t kNoNeighbor = 0xFFFFFFFFu;

  VertexSampler() = default;
  explicit VertexSampler(const BingoConfig* config) : config_(config) {}

  void SetConfig(const BingoConfig* config) { config_ = config; }

  // An independent copy: a new block holding the same groups, alias table
  // and decimal group, so it samples bit-identically to this one.
  VertexSampler Clone() const;

  // Frees the block (and every group payload in it); the handle reads as a
  // vertex without out-weight afterwards.
  void Release();

  // Rebuilds everything from scratch (initial load, O(d·K)).
  void Build(std::span<const graph::Edge> adj);

  // --- streaming path (§4.2): one edge at a time -------------------------

  // The edge at neighbor index `idx` was just appended to `adj`; splits its
  // bias into the groups. Call FinishUpdate afterwards.
  void InsertEdge(std::span<const graph::Edge> adj, uint32_t idx);

  // The edge at `idx` is about to be removed from the adjacency; withdraws
  // its sub-biases from the groups. Call with the *pre-removal* adjacency.
  void RemoveEdge(std::span<const graph::Edge> adj, uint32_t idx);

  // The adjacency swap-with-tail moved the edge with bias `moved_bias` from
  // neighbor index `from` to `to`; re-points its group entries.
  void RenameIndex(double moved_bias, uint32_t from, uint32_t to);

  // Reclassifies groups (GA mode, Eq 9), packs out groups that emptied and
  // rebuilds the inter-group alias table. O(K) plus rare conversion
  // rebuilds; frees the block when the vertex has no weight left.
  void FinishUpdate(std::span<const graph::Edge> adj);

  // --- batched path (§5.2): many edges, one rebuild ----------------------

  // Removes all `idxs` (sorted, unique, all present) with per-group
  // two-phase delete-and-swap. Call with the pre-removal adjacency;
  // adjacency compaction + RenameIndex calls follow, then FinishUpdate.
  void RemoveEdgesBatch(std::span<const graph::Edge> adj,
                        std::span<const uint32_t> idxs);

  // --- sampling (§4.1) ----------------------------------------------------

  // Draws a neighbor index with probability bias_i / sum(bias). Returns
  // kNoNeighbor when the vertex has no weight (e.g. no out-edges). O(1).
  uint32_t SampleIndex(std::span<const graph::Edge> adj, util::Rng& rng) const;

  // Batched draws against this vertex: out[i] is exactly what
  // SampleIndex(adj, *rngs[i]) would return. Stage (i) resolves through the
  // SIMD alias kernel; dense-group rejection runs in rounds with the radix
  // bit tests lane-batched (SplitBiasIntBatch). Each walker's variates come
  // from its own stream in SampleIndex's order, so the result is
  // bit-identical to n sequential SampleIndex calls.
  void SampleIndexBatch(std::span<const graph::Edge> adj,
                        util::Rng* const* rngs, std::size_t n,
                        uint32_t* out) const;

  // Advisory prefetch of the block's first line (header and the head of the
  // alias table), the first load of the next draw at this vertex.
  void Prefetch() const {
    if (block_ != nullptr) {
      util::PrefetchRead(block_);
    }
  }

  // --- introspection ------------------------------------------------------

  // Exact distribution the structure implies for each neighbor index
  // (via alias implied probabilities; no sampling). Tests compare this to
  // the bias-derived ground truth.
  std::vector<double> ImpliedDistribution(std::span<const graph::Edge> adj) const;

  // Full structural audit against the adjacency. Empty string = consistent.
  std::string CheckInvariants(std::span<const graph::Edge> adj) const;

  VertexMemoryBreakdown MemoryBreakdown() const;

  // Adds this vertex's group-kind population to `counts` (Fig 11e).
  void CountGroupKinds(std::array<uint64_t, 5>& counts) const;

  int NumActiveGroups() const;
  // The group of radix position k, or nullptr when it has no members.
  const RadixGroup* GroupAt(int k) const;
  // The decimal group; an empty one when the vertex has no fractional
  // weight.
  const DecimalGroup& Decimal() const;

 private:
  static constexpr int kDecimalGroupId = -1;

  struct Block;

  BiasParts Split(double bias) const { return SplitBias(bias, config_->lambda); }
  util::MemoryPool& Pool() const { return *config_->pool; }
  // Reallocates the block to hold headers for exactly the radix positions
  // in `present`, plus a decimal group iff `decimal`. Surviving headers and
  // the decimal group move over; new ones start empty (a new decimal group
  // takes the configured policy); dropped ones must be empty. The alias
  // table is left for RebuildInterGroupAlias. Frees the block when both
  // are empty.
  void Reshape(uint64_t present, bool decimal);
  // Header of radix position k, which must be present.
  RadixGroup& GroupFor(int k);
  void RebuildInterGroupAlias();
  void ReclassifyGroups(std::span<const graph::Edge> adj);
  // Members of group k recovered by scanning the adjacency (used when
  // converting away from dense, which stores no members).
  std::vector<uint32_t> ScanMembers(std::span<const graph::Edge> adj, int k) const;

  const BingoConfig* config_ = nullptr;
  Block* block_ = nullptr;  // null: the vertex has no out-weight
};

static_assert(sizeof(VertexSampler) == 16, "the per-vertex handle is 16 bytes");
static_assert(std::is_trivially_copyable_v<VertexSampler>);

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_VERTEX_SAMPLER_H_
