// The decimal group of §4.3: after lambda-scaling, the fractional remainder
// of every neighbor's bias is collected into one extra group. Inter-group
// sampling weighs this group by W_D = sum of all fractional parts; when it
// is selected, intra-group sampling uses ITS or rejection (the two options
// named by the paper).
//
// Fractions are stored as 32-bit fixed point (units of 2^-32), so W_D and
// the ITS prefix sums are exact integers; see DESIGN.md §4.4.
//
// Layout: the group is a 16-byte header (payload pointer, member count,
// policy) that lives in its vertex's sampler block. Everything else is one
// pooled payload: W_D and the capacities, then the member neighbor indices,
// their fractions, the ITS prefix sums (ITS policy only), and the inverted
// index from neighbor index to member position. Like a radix group's, the
// inverted index is either regular (a position array over neighbor
// indices, 16-bit while the member capacity allows) or sparse (hash
// slots; both in payload.h), whichever takes fewer bytes
// when the payload is laid out, so a few members at far-apart neighbor
// indices cost bytes on the order of the member count. Member capacity
// follows the radix-group rule: the member count, filling the payload's
// pool size class. An empty group has no payload.
//
// Ownership is explicit, as for a radix group: the header is trivially
// copyable, Clone() deep-copies, Clear() frees, and every operation that
// may allocate or free takes the pool the payload lives in.

#ifndef BINGO_SRC_CORE_DECIMAL_GROUP_H_
#define BINGO_SRC_CORE_DECIMAL_GROUP_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/memory_pool.h"
#include "src/util/rng.h"

namespace bingo::core {

class DecimalGroup {
 public:
  enum class Policy : uint8_t { kRejection, kIts };

  static constexpr uint32_t kNoPosition = 0xFFFFFFFFu;

  explicit DecimalGroup(Policy policy = Policy::kRejection) : policy_(policy) {}

  // An independent copy (same capacities and index layout).
  DecimalGroup Clone(util::MemoryPool& pool) const;

  Policy GetPolicy() const { return policy_; }

  // Switches the intra-group sampling policy, laying the payload out again
  // (with or without the prefix-sum array).
  void SetPolicy(Policy policy, util::MemoryPool& pool);

  // Makes room for `members` members at neighbor indices below
  // `index_extent`, so that inserting them allocates nothing more.
  void Reserve(uint32_t members, uint32_t index_extent, util::MemoryPool& pool);

  // Adds neighbor `idx` with fractional weight `dec` (0 < dec < 2^32).
  // O(1) amortized for both policies (ITS appends to the prefix sums).
  void Insert(uint32_t idx, uint32_t dec, util::MemoryPool& pool);

  // Removes neighbor `idx` (must be present). O(1) for rejection;
  // O(|G| - pos) for ITS (suffix rewrite, matching the paper's Table 1).
  // Frees the payload when the last member goes.
  void Remove(uint32_t idx, util::MemoryPool& pool);

  // Re-points member `from` to neighbor index `to` (weights unchanged).
  void Rename(uint32_t from, uint32_t to, util::MemoryPool& pool);

  bool Contains(uint32_t idx) const {
    return payload_ != nullptr && IndexFind(idx) != kNoPosition;
  }

  uint32_t DecOf(uint32_t idx) const { return Dec()[IndexFind(idx)]; }

  uint32_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }

  // W_D in units of 2^-32.
  uint64_t TotalFixed() const {
    return payload_ != nullptr ? payload_->total_fixed : 0;
  }

  // Draws a member with probability dec_i / W_D. Requires TotalFixed() > 0.
  uint32_t Sample(util::Rng& rng) const;

  // (idx, dec) pairs, for audits and implied-distribution reconstruction.
  void CollectMembers(std::vector<std::pair<uint32_t, uint32_t>>& out) const;

  // Frees the payload; the group reads empty afterwards.
  void Clear(util::MemoryPool& pool);

  // Bytes of the pooled payload; the 16-byte header is accounted by
  // whoever holds it.
  std::size_t MemoryBytes() const {
    return payload_ != nullptr ? PayloadBytes(*payload_) : 0;
  }

  std::string CheckInvariants() const;

 private:
  // This header, then idx[member_capacity], dec[member_capacity],
  // cdf[member_capacity] (ITS only, 8-byte aligned since the two uint32
  // arrays together are), then the inverted index: index_capacity
  // positions (regular; 16 or 32 bits by member_capacity, payload.h) or
  // uint64 hash slots (sparse).
  struct Payload {
    uint64_t total_fixed;
    uint32_t member_capacity;
    uint32_t index_capacity;
    uint32_t index_used;  // sparse: occupied hash slots, tombstones included
    bool sparse;
    bool its;
    uint8_t reserved[2];
  };

  static std::size_t PayloadBytes(const Payload& p);
  uint32_t* Idx() const;
  uint32_t* Dec() const;
  uint64_t* Cdf() const;
  void* Positions() const;
  uint64_t* Slots() const;

  // Lays the payload out again for `policy` with room for at least
  // `members` members at neighbor indices below `index_extent`, keeping the
  // members, and picks the smaller inverted index for it.
  void Relayout(uint32_t members, uint32_t index_extent, Policy policy,
                util::MemoryPool& pool);
  // One more than the highest member neighbor index, at least `at_least`.
  uint32_t IndexExtent(uint32_t at_least) const;
  void RebuildIndex();
  void IndexSet(uint32_t idx, uint32_t pos);
  void IndexErase(uint32_t idx);
  uint32_t IndexFind(uint32_t idx) const;
  void RebuildCdfFrom(std::size_t pos);

  Payload* payload_ = nullptr;
  uint32_t count_ = 0;
  Policy policy_;
};

static_assert(sizeof(DecimalGroup) <= 16, "the in-block decimal header");
static_assert(std::is_trivially_copyable_v<DecimalGroup>);

}  // namespace bingo::core

#endif  // BINGO_SRC_CORE_DECIMAL_GROUP_H_
