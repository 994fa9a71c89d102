// Helpers shared by the pooled per-vertex payloads of the radix groups
// (groups.h) and the decimal group (decimal_group.h): the open-addressing
// inverted index over hash slots, and the capacity rule.
//
// Hash slots: linear probing over a power-of-two array of `key<<32 | value`
// slots, with tombstones; the load stays below three quarters.
//
// Capacity rule: a payload holds room for its members, rounded up so that
// it fills the MemoryPool size class it lands in. The headroom costs no
// memory (the class is taken either way) and stays within one class
// spacing of the member count.

#ifndef BINGO_SRC_CORE_PAYLOAD_H_
#define BINGO_SRC_CORE_PAYLOAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/util/memory_pool.h"

namespace bingo::core::payload {

inline constexpr uint64_t kEmptySlot = ~uint64_t{0};
inline constexpr uint64_t kTombstoneSlot = ~uint64_t{0} - 1;

inline uint64_t PackSlot(uint32_t key, uint32_t value) {
  return (static_cast<uint64_t>(key) << 32) | value;
}

inline bool SlotHolds(uint64_t slot, uint32_t key) {
  return slot != kEmptySlot && slot != kTombstoneSlot &&
         static_cast<uint32_t>(slot >> 32) == key;
}

inline std::size_t HomeSlot(uint32_t key, std::size_t mask) {
  return (key * 0x9e3779b9u) & mask;
}

// Stores (key, value) in the first free slot; true if that slot was never
// used before (a tombstone reuse leaves the occupancy unchanged). The table
// must have a free slot.
inline bool ProbeInsert(uint64_t* slots, std::size_t capacity, uint32_t key,
                        uint32_t value) {
  const std::size_t mask = capacity - 1;
  std::size_t pos = HomeSlot(key, mask);
  while (slots[pos] != kEmptySlot && slots[pos] != kTombstoneSlot) {
    pos = (pos + 1) & mask;
  }
  const bool fresh = slots[pos] == kEmptySlot;
  slots[pos] = PackSlot(key, value);
  return fresh;
}

// Slot index holding `key`, or `capacity` when absent.
inline std::size_t ProbeFind(const uint64_t* slots, std::size_t capacity,
                             uint32_t key) {
  if (capacity == 0) {
    return 0;
  }
  const std::size_t mask = capacity - 1;
  std::size_t pos = HomeSlot(key, mask);
  while (slots[pos] != kEmptySlot) {
    if (SlotHolds(slots[pos], key)) {
      return pos;
    }
    pos = (pos + 1) & mask;
  }
  return capacity;
}

// Slot capacity for `live` keys after a rehash: a power of two >= 8 that
// keeps the load at or below one half.
inline std::size_t HashCapacityFor(std::size_t live) {
  std::size_t cap = 8;
  while (cap < live * 2) {
    cap <<= 1;
  }
  return cap;
}

// True when one more fresh-slot insertion would push the occupancy of a
// table of `capacity` slots (`used` occupied) to three quarters.
inline bool HashNeedsGrowth(std::size_t used, std::size_t capacity) {
  return capacity == 0 || (used + 1) * 4 >= capacity * 3;
}

// Capacity to rehash into once HashNeedsGrowth holds, for a table with
// `live` keys about to take one more. It can equal the current capacity:
// the rehash must happen anyway, because it is what drops the tombstones.
// Without it, churn at a steady size fills every slot and the probe for an
// absent key never ends.
inline std::size_t GrownHashCapacity(std::size_t live) {
  return HashCapacityFor(std::max<std::size_t>(live + 1, 4));
}

// The member capacity, at least `members`, of a payload of `fixed_bytes`
// plus `member_bytes` per member slot that fills its pool size class.
// `multiple` (a power of two) rounds the capacity down to keep later
// arrays aligned.
inline uint32_t FillClass(std::size_t fixed_bytes, std::size_t member_bytes,
                          uint32_t members, uint32_t multiple = 1) {
  const std::size_t want = (members + multiple - 1) & ~std::size_t{multiple - 1};
  const std::size_t cls =
      util::MemoryPool::ClassSize(fixed_bytes + want * member_bytes);
  const std::size_t fit = (cls - fixed_bytes) / member_bytes;
  return static_cast<uint32_t>(fit & ~std::size_t{multiple - 1});
}

}  // namespace bingo::core::payload

#endif  // BINGO_SRC_CORE_PAYLOAD_H_
