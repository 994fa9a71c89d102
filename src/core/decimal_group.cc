#include "src/core/decimal_group.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "src/core/payload.h"

namespace bingo::core {

using payload::HashCapacityFor;
using payload::HashNeedsGrowth;
using payload::kEmptySlot;
using payload::kTombstoneSlot;
using payload::PackSlot;
using payload::ProbeFind;
using payload::ProbeInsert;

namespace {
// Bytes of the member columns per member slot: idx and dec, plus the
// prefix sum under ITS.
std::size_t MemberBytes(bool its) {
  return 2 * sizeof(uint32_t) + (its ? sizeof(uint64_t) : 0);
}
}  // namespace

std::size_t DecimalGroup::PayloadBytes(const Payload& p) {
  return sizeof(Payload) + std::size_t{p.member_capacity} * MemberBytes(p.its) +
         std::size_t{p.index_capacity} *
             (p.sparse ? sizeof(uint64_t) : sizeof(uint32_t));
}

uint32_t* DecimalGroup::Idx() const {
  return reinterpret_cast<uint32_t*>(payload_ + 1);
}
uint32_t* DecimalGroup::Dec() const {
  return Idx() + payload_->member_capacity;
}
uint64_t* DecimalGroup::Cdf() const {
  return reinterpret_cast<uint64_t*>(Dec() + payload_->member_capacity);
}
uint32_t* DecimalGroup::Positions() const {
  return reinterpret_cast<uint32_t*>(reinterpret_cast<char*>(payload_ + 1) +
                                     std::size_t{payload_->member_capacity} *
                                         MemberBytes(payload_->its));
}
uint64_t* DecimalGroup::Slots() const {
  return reinterpret_cast<uint64_t*>(Positions());
}

DecimalGroup DecimalGroup::Clone(util::MemoryPool& pool) const {
  DecimalGroup copy = *this;
  if (payload_ != nullptr) {
    const std::size_t bytes = PayloadBytes(*payload_);
    copy.payload_ = static_cast<Payload*>(pool.Allocate(bytes));
    std::memcpy(static_cast<void*>(copy.payload_), payload_, bytes);
  }
  return copy;
}

uint32_t DecimalGroup::IndexExtent(uint32_t at_least) const {
  uint32_t extent = at_least;
  for (uint32_t pos = 0; pos < count_; ++pos) {
    extent = std::max(extent, Idx()[pos] + 1);
  }
  return extent;
}

void DecimalGroup::Relayout(uint32_t members, uint32_t index_extent,
                            Policy policy, util::MemoryPool& pool) {
  assert(members >= count_);
  const bool its = policy == Policy::kIts;
  // The smaller inverted index: positions over every neighbor index below
  // the extent, or hash slots at most half full.
  const std::size_t slots = HashCapacityFor(std::max<std::size_t>(members, 4));
  const bool sparse = std::size_t{index_extent} * sizeof(uint32_t) >
                      slots * sizeof(uint64_t);
  const uint32_t index_capacity =
      sparse ? static_cast<uint32_t>(slots) : index_extent;
  const std::size_t index_bytes =
      std::size_t{index_capacity} * (sparse ? sizeof(uint64_t) : sizeof(uint32_t));
  const uint32_t member_capacity = payload::FillClass(
      sizeof(Payload) + index_bytes, MemberBytes(its), members);
  Payload* old = payload_;
  const uint32_t* old_idx = old != nullptr ? Idx() : nullptr;
  const uint32_t* old_dec = old != nullptr ? Dec() : nullptr;
  payload_ = new (pool.Allocate(sizeof(Payload) +
                                std::size_t{member_capacity} * MemberBytes(its) +
                                index_bytes))
      Payload{old != nullptr ? old->total_fixed : 0,
              member_capacity,
              index_capacity,
              0,
              sparse,
              its,
              {}};
  policy_ = policy;
  if (old != nullptr) {
    std::copy_n(old_idx, count_, Idx());
    std::copy_n(old_dec, count_, Dec());
    pool.Deallocate(old, PayloadBytes(*old));
  }
  if (its) {
    RebuildCdfFrom(0);
  }
  RebuildIndex();
}

void DecimalGroup::RebuildIndex() {
  if (payload_->sparse) {
    std::fill_n(Slots(), payload_->index_capacity, kEmptySlot);
    for (uint32_t pos = 0; pos < count_; ++pos) {
      ProbeInsert(Slots(), payload_->index_capacity, Idx()[pos], pos);
    }
    payload_->index_used = count_;
  } else {
    std::fill_n(Positions(), payload_->index_capacity, kNoPosition);
    for (uint32_t pos = 0; pos < count_; ++pos) {
      Positions()[Idx()[pos]] = pos;
    }
  }
}

void DecimalGroup::IndexSet(uint32_t idx, uint32_t pos) {
  if (!payload_->sparse) {
    Positions()[idx] = pos;
    return;
  }
  const std::size_t slot = ProbeFind(Slots(), payload_->index_capacity, idx);
  if (slot != payload_->index_capacity) {
    Slots()[slot] = PackSlot(idx, pos);
  } else if (ProbeInsert(Slots(), payload_->index_capacity, idx, pos)) {
    ++payload_->index_used;
  }
}

void DecimalGroup::IndexErase(uint32_t idx) {
  if (!payload_->sparse) {
    Positions()[idx] = kNoPosition;
    return;
  }
  const std::size_t slot = ProbeFind(Slots(), payload_->index_capacity, idx);
  assert(slot != payload_->index_capacity);
  Slots()[slot] = kTombstoneSlot;
}

uint32_t DecimalGroup::IndexFind(uint32_t idx) const {
  if (!payload_->sparse) {
    return idx < payload_->index_capacity ? Positions()[idx] : kNoPosition;
  }
  const std::size_t slot = ProbeFind(Slots(), payload_->index_capacity, idx);
  return slot == payload_->index_capacity
             ? kNoPosition
             : static_cast<uint32_t>(Slots()[slot]);
}

void DecimalGroup::SetPolicy(Policy policy, util::MemoryPool& pool) {
  if (policy == policy_) {
    return;
  }
  if (payload_ == nullptr) {
    policy_ = policy;
    return;
  }
  Relayout(count_, IndexExtent(0), policy, pool);
}

void DecimalGroup::Reserve(uint32_t members, uint32_t index_extent,
                           util::MemoryPool& pool) {
  if (payload_ != nullptr && members <= payload_->member_capacity &&
      (payload_->sparse ? !HashNeedsGrowth(payload_->index_used +
                                               (members - count_),
                                           payload_->index_capacity)
                        : index_extent <= payload_->index_capacity)) {
    return;
  }
  Relayout(std::max(members, count_), IndexExtent(index_extent), policy_, pool);
}

void DecimalGroup::Insert(uint32_t idx, uint32_t dec, util::MemoryPool& pool) {
  assert(dec > 0);
  if (payload_ == nullptr) {
    Relayout(1, idx + 1, policy_, pool);
  } else if (count_ == payload_->member_capacity ||
             (payload_->sparse
                  ? HashNeedsGrowth(payload_->index_used,
                                    payload_->index_capacity)
                  : idx >= payload_->index_capacity)) {
    // Doubling headroom, as a radix group grows.
    const uint32_t members = count_ == payload_->member_capacity
                                 ? std::max(2u, count_ * 2)
                                 : count_ + 1;
    const uint32_t extent =
        payload_->sparse || idx < payload_->index_capacity
            ? idx + 1
            : std::max(idx + 1, payload_->index_capacity * 2);
    Relayout(members, IndexExtent(extent), policy_, pool);
  }
  assert(!Contains(idx));
  IndexSet(idx, count_);
  Idx()[count_] = idx;
  Dec()[count_] = dec;
  payload_->total_fixed += dec;
  if (policy_ == Policy::kIts) {
    Cdf()[count_] = payload_->total_fixed;
  }
  ++count_;
}

void DecimalGroup::Remove(uint32_t idx, util::MemoryPool& pool) {
  assert(Contains(idx));
  const uint32_t pos = IndexFind(idx);
  const uint32_t last = count_ - 1;
  payload_->total_fixed -= Dec()[pos];
  if (pos != last) {
    Idx()[pos] = Idx()[last];
    Dec()[pos] = Dec()[last];
    IndexSet(Idx()[pos], pos);
  }
  IndexErase(idx);
  --count_;
  if (count_ == 0) {
    Clear(pool);
    return;
  }
  if (policy_ == Policy::kIts) {
    RebuildCdfFrom(pos);
  }
}

void DecimalGroup::Rename(uint32_t from, uint32_t to, util::MemoryPool& pool) {
  assert(Contains(from));
  if (payload_->sparse
          ? HashNeedsGrowth(payload_->index_used, payload_->index_capacity)
          : to >= payload_->index_capacity) {
    const uint32_t extent =
        payload_->sparse ? to + 1
                         : std::max(to + 1, payload_->index_capacity * 2);
    Relayout(count_, IndexExtent(extent), policy_, pool);
  }
  const uint32_t pos = IndexFind(from);
  IndexErase(from);
  IndexSet(to, pos);
  Idx()[pos] = to;
}

void DecimalGroup::RebuildCdfFrom(std::size_t pos) {
  uint64_t* cdf = Cdf();
  uint64_t running = pos == 0 ? 0 : cdf[pos - 1];
  for (std::size_t i = pos; i < count_; ++i) {
    running += Dec()[i];
    cdf[i] = running;
  }
}

uint32_t DecimalGroup::Sample(util::Rng& rng) const {
  assert(TotalFixed() > 0);
  const uint32_t* idx = Idx();
  if (policy_ == Policy::kIts) {
    const uint64_t x = rng.NextBounded(payload_->total_fixed);
    const uint64_t* cdf = Cdf();
    return idx[std::upper_bound(cdf, cdf + count_, x) - cdf];
  }
  // Rejection with the trivial bound 1.0 (all fractions are < 2^32): accept
  // member m with probability dec_m / 2^32.
  const uint32_t* dec = Dec();
  for (;;) {
    const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(count_));
    if (rng.NextU32() < dec[pos]) {
      return idx[pos];
    }
  }
}

void DecimalGroup::CollectMembers(
    std::vector<std::pair<uint32_t, uint32_t>>& out) const {
  for (uint32_t pos = 0; pos < count_; ++pos) {
    out.emplace_back(Idx()[pos], Dec()[pos]);
  }
}

void DecimalGroup::Clear(util::MemoryPool& pool) {
  if (payload_ != nullptr) {
    pool.Deallocate(payload_, PayloadBytes(*payload_));
  }
  payload_ = nullptr;
  count_ = 0;
}

std::string DecimalGroup::CheckInvariants() const {
  if (payload_ == nullptr) {
    return count_ == 0 ? std::string{} : "decimal group members without storage";
  }
  if (count_ == 0) {
    return "empty decimal group kept its payload";
  }
  if (count_ > payload_->member_capacity) {
    return "decimal group count exceeds its member capacity";
  }
  if (payload_->its != (policy_ == Policy::kIts)) {
    return "decimal group layout differs from its policy";
  }
  uint64_t sum = 0;
  for (uint32_t pos = 0; pos < count_; ++pos) {
    if (Dec()[pos] == 0) {
      return "decimal group member with zero weight";
    }
    sum += Dec()[pos];
    if (IndexFind(Idx()[pos]) != pos) {
      return "decimal group inverted index mismatch";
    }
    if (policy_ == Policy::kIts && Cdf()[pos] != sum) {
      return "decimal group CDF out of sync";
    }
  }
  if (sum != payload_->total_fixed) {
    return "decimal group total mismatch";
  }
  uint32_t live = 0;
  uint32_t used = 0;
  for (uint32_t i = 0; i < payload_->index_capacity; ++i) {
    if (payload_->sparse) {
      used += Slots()[i] != kEmptySlot;
      live += Slots()[i] != kEmptySlot && Slots()[i] != kTombstoneSlot;
    } else {
      live += Positions()[i] != kNoPosition;
    }
  }
  if (live != count_ || (payload_->sparse && used != payload_->index_used)) {
    return "decimal group inverted index live-count mismatch";
  }
  return {};
}

}  // namespace bingo::core
