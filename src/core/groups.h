// Radix-group storage: the intra-group neighbor index list, the inverted
// index (§4.2, Fig 6), and the adaptive group representations (§5.1, Eq 9).
//
// A group stores *neighbor indices* (positions in the source vertex's
// adjacency array), never neighbor IDs, so that a group member locates its
// edge in O(1). The inverted index maps a neighbor index to its position in
// the member list so that deletion locates the entry in O(1) and removes it
// with swap-with-tail, keeping the member list compact for O(1) unbiased
// sampling.
//
// Four representations (Eq 9, alpha = 40, beta = 10 by default):
//   Dense       |G|/d > alpha%   -> store only the count; sample by
//                                   rejection on the adjacency array
//   One-element |G| == 1         -> store the single neighbor index
//   Sparse      |G|/d < beta%    -> compact member list + O(|G|) hash
//                                   inverted index (paper's compacted
//                                   neighbor-list design; see DESIGN.md §4.3)
//   Regular     otherwise        -> member list + full O(d) inverted index

#ifndef BINGO_SRC_CORE_GROUPS_H_
#define BINGO_SRC_CORE_GROUPS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/memory_pool.h"
#include "src/util/rng.h"

namespace bingo::core {

enum class GroupKind : uint8_t { kEmpty, kDense, kOneElement, kSparse, kRegular };

const char* ToString(GroupKind kind);

struct AdaptiveConfig {
  bool adaptive = true;      // false = BS baseline: every group is regular
  double alpha_percent = 40.0;
  double beta_percent = 10.0;
};

// Eq 9, evaluated in the paper's order (dense wins over one-element when
// both match).
GroupKind ClassifyGroup(uint64_t count, uint64_t degree, const AdaptiveConfig& cfg);

// Open-addressing map from neighbor index to member-list position; the
// sparse-group inverted index. Linear probing with tombstones. A sparse
// RadixGroup runs the same probing over the hash slots inside its payload.
class IndexMap {
 public:
  void Insert(uint32_t key, uint32_t value);
  std::optional<uint32_t> Find(uint32_t key) const;
  bool Erase(uint32_t key);
  bool Update(uint32_t key, uint32_t value);
  void Clear();
  uint32_t Size() const { return live_; }
  std::size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

 private:
  // Rehashes into GrownHashCapacity(live_) slots, dropping tombstones.
  void Grow();

  std::vector<uint64_t> slots_;  // key<<32 | value
  uint32_t live_ = 0;
  uint32_t used_ = 0;
};

// One radix group of one vertex, in whichever representation its
// classification currently demands.
//
// The group itself is a 16-byte header: kind, count, and either the
// one-element member or a pointer to one pooled payload holding the member
// list followed by its inverted index (regular: a neighbor-index-sized
// position array; sparse: open-addressing hash slots). Empty, dense and
// one-element groups allocate nothing. The member list is sized by the
// member count, filling its pool size class (payload.h).
//
// Ownership is explicit, as for the vertex sampler that holds the group:
// the header is trivially copyable (a copy aliases the payload), Clone()
// makes an independent deep copy, and Clear() frees the payload. Every
// operation that may allocate or free takes the pool the payload lives in.
class RadixGroup {
 public:
  static constexpr uint32_t kNoPosition = 0xFFFFFFFFu;

  RadixGroup() = default;

  // An independent copy, payload included (same capacities, same hash
  // layout).
  RadixGroup Clone(util::MemoryPool& pool) const;

  GroupKind Kind() const { return kind_; }
  uint32_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }

  // Adds neighbor index `idx`. If the current representation cannot absorb
  // the element (empty, or full one-element), it escalates to the smallest
  // representation that can; a later Reclassify() pass settles the final
  // kind. `degree_hint` sizes the regular inverted index.
  void Insert(uint32_t idx, uint32_t degree_hint, util::MemoryPool& pool);

  // Removes neighbor index `idx` (must be present; for dense groups this
  // only decrements the count). Swap-with-tail keeps members compact.
  void Remove(uint32_t idx, util::MemoryPool& pool);

  // Re-points member `from` to index `to` after an adjacency swap-with-tail
  // renamed the neighbor index. No-op for dense groups.
  void Rename(uint32_t from, uint32_t to, util::MemoryPool& pool);

  // Two-phase parallel delete-and-swap (Fig 10b): removes every index in
  // `idxs` (each must be a member; dense groups only adjust the count).
  void BatchRemove(std::span<const uint32_t> idxs, util::MemoryPool& pool);

  // Uniform member pick for one-element/sparse/regular groups. Dense groups
  // have no member list; the vertex sampler handles them by rejection on
  // the adjacency array.
  uint32_t PickUniform(util::Rng& rng) const {
    if (kind_ == GroupKind::kOneElement) {
      return single_;
    }
    return payload_->Members()[rng.NextBounded(count_)];
  }

  // Rebuilds as `target` from the full member list. `degree_hint` sizes the
  // regular inverted index.
  void RebuildAs(GroupKind target, std::span<const uint32_t> members,
                 uint32_t degree_hint, util::MemoryPool& pool);

  // Appends all members to `out`. Not valid for dense groups (which do not
  // store members).
  void CollectMembers(std::vector<uint32_t>& out) const;

  // Membership test (not valid for dense groups).
  bool Contains(uint32_t idx) const;

  // Frees the payload; the group reads empty afterwards.
  void Clear(util::MemoryPool& pool);

  // Bytes of the pooled payload (0 for empty, dense and one-element
  // groups); the 16-byte header is accounted by whoever holds it.
  std::size_t MemoryBytes() const;

  // Structural audit: inverted index consistent with members, no
  // duplicates, count matches. Returns an error description or empty.
  std::string CheckInvariants() const;

 private:
  // Pooled payload of a sparse or regular group: this header, then
  // `member_capacity` member slots (the first count_ are live), then
  // `index_capacity` inverted-index entries — uint32_t positions for a
  // regular group, uint64_t hash slots for a sparse one (member_capacity is
  // even, so the hash slots are 8-byte aligned).
  struct Payload {
    uint32_t member_capacity;
    uint32_t index_capacity;
    uint32_t index_used;  // sparse: occupied hash slots, tombstones included
    uint32_t reserved;

    uint32_t* Members() { return reinterpret_cast<uint32_t*>(this + 1); }
    const uint32_t* Members() const {
      return reinterpret_cast<const uint32_t*>(this + 1);
    }
    uint32_t* Positions() { return Members() + member_capacity; }
    const uint32_t* Positions() const { return Members() + member_capacity; }
    uint64_t* Slots() { return reinterpret_cast<uint64_t*>(Positions()); }
    const uint64_t* Slots() const {
      return reinterpret_cast<const uint64_t*>(Positions());
    }
  };

  bool HasPayload() const {
    return kind_ == GroupKind::kSparse || kind_ == GroupKind::kRegular;
  }
  std::size_t IndexEntryBytes() const {
    return kind_ == GroupKind::kSparse ? sizeof(uint64_t) : sizeof(uint32_t);
  }
  // Reallocates the payload with room for at least `member_capacity`
  // members (filling the size class) and exactly `index_capacity` index
  // entries, keeping the members and rebuilding the inverted index from
  // them (which also drops sparse tombstones). Requires a sparse or regular
  // kind_.
  void Reserve(uint32_t member_capacity, uint32_t index_capacity,
               util::MemoryPool& pool);
  // Refills the inverted index from the first count_ members.
  void RebuildIndex();
  // Makes room for one more member (and, for regular groups, for neighbor
  // index `idx` in the inverted index).
  void ReserveForInsert(uint32_t idx, util::MemoryPool& pool);
  // Sparse groups: makes room for one hash-slot insertion.
  void ReserveHashSlot(util::MemoryPool& pool);
  void IndexSet(uint32_t idx, uint32_t pos);
  void IndexErase(uint32_t idx);
  uint32_t IndexFind(uint32_t idx) const;
  void RemoveAtPosition(uint32_t pos);

  union {
    uint32_t single_;             // one-element storage
    Payload* payload_ = nullptr;  // sparse + regular
  };
  uint32_t count_ = 0;
  GroupKind kind_ = GroupKind::kEmpty;
};

static_assert(sizeof(RadixGroup) == 16, "group headers are 16 bytes");
static_assert(std::is_trivially_copyable_v<RadixGroup>);

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_GROUPS_H_
