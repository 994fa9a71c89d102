#include "src/core/groups.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "src/core/payload.h"

namespace bingo::core {

const char* ToString(GroupKind kind) {
  switch (kind) {
    case GroupKind::kEmpty:
      return "empty";
    case GroupKind::kDense:
      return "dense";
    case GroupKind::kOneElement:
      return "one-element";
    case GroupKind::kSparse:
      return "sparse";
    case GroupKind::kRegular:
      return "regular";
  }
  return "?";
}

GroupKind ClassifyGroup(uint64_t count, uint64_t degree, const AdaptiveConfig& cfg) {
  if (count == 0) {
    return GroupKind::kEmpty;
  }
  if (!cfg.adaptive) {
    return GroupKind::kRegular;
  }
  const double ratio = 100.0 * static_cast<double>(count) / static_cast<double>(degree);
  if (ratio > cfg.alpha_percent) {
    return GroupKind::kDense;
  }
  if (count == 1) {
    return GroupKind::kOneElement;
  }
  if (ratio < cfg.beta_percent) {
    return GroupKind::kSparse;
  }
  return GroupKind::kRegular;
}

using payload::GrownHashCapacity;
using payload::HashCapacityFor;
using payload::HashNeedsGrowth;
using payload::kEmptySlot;
using payload::kTombstoneSlot;
using payload::PackSlot;
using payload::ProbeFind;
using payload::ProbeInsert;

// ---------------------------------------------------------------- IndexMap --

void IndexMap::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(GrownHashCapacity(live_), kEmptySlot);
  used_ = 0;
  live_ = 0;
  for (uint64_t slot : old) {
    if (slot != kEmptySlot && slot != kTombstoneSlot) {
      Insert(static_cast<uint32_t>(slot >> 32), static_cast<uint32_t>(slot));
    }
  }
}

void IndexMap::Insert(uint32_t key, uint32_t value) {
  if (HashNeedsGrowth(used_, slots_.size())) {
    Grow();
  }
  if (ProbeInsert(slots_.data(), slots_.size(), key, value)) {
    ++used_;
  }
  ++live_;
}

std::optional<uint32_t> IndexMap::Find(uint32_t key) const {
  const std::size_t pos = ProbeFind(slots_.data(), slots_.size(), key);
  if (pos == slots_.size()) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(slots_[pos]);
}

bool IndexMap::Erase(uint32_t key) {
  const std::size_t pos = ProbeFind(slots_.data(), slots_.size(), key);
  if (pos == slots_.size()) {
    return false;
  }
  slots_[pos] = kTombstoneSlot;
  --live_;
  return true;
}

bool IndexMap::Update(uint32_t key, uint32_t value) {
  const std::size_t pos = ProbeFind(slots_.data(), slots_.size(), key);
  if (pos == slots_.size()) {
    return false;
  }
  slots_[pos] = PackSlot(key, value);
  return true;
}

void IndexMap::Clear() {
  slots_.clear();
  live_ = 0;
  used_ = 0;
}

// -------------------------------------------------------------- RadixGroup --

RadixGroup RadixGroup::Clone(util::MemoryPool& pool) const {
  RadixGroup copy = *this;
  if (HasPayload()) {
    const std::size_t bytes = MemoryBytes();
    copy.payload_ = static_cast<Payload*>(pool.Allocate(bytes));
    std::memcpy(static_cast<void*>(copy.payload_), payload_, bytes);
  }
  return copy;
}

void RadixGroup::Reserve(uint32_t member_capacity, uint32_t index_capacity,
                         util::MemoryPool& pool) {
  assert(HasPayload());
  assert(member_capacity >= count_);
  const std::size_t index_bytes = std::size_t{index_capacity} * IndexEntryBytes();
  // Even, so that the hash slots stay 8-byte aligned.
  member_capacity = payload::FillClass(sizeof(Payload) + index_bytes,
                                       sizeof(uint32_t), member_capacity, 2);
  auto* fresh = new (pool.Allocate(sizeof(Payload) +
                                   std::size_t{member_capacity} * sizeof(uint32_t) +
                                   index_bytes))
      Payload{member_capacity, index_capacity, 0, 0};
  if (payload_ != nullptr) {
    std::copy_n(payload_->Members(), count_, fresh->Members());
    pool.Deallocate(payload_, MemoryBytes());
  }
  payload_ = fresh;
  RebuildIndex();
}

void RadixGroup::RebuildIndex() {
  const uint32_t* members = payload_->Members();
  if (kind_ == GroupKind::kSparse) {
    std::fill_n(payload_->Slots(), payload_->index_capacity, kEmptySlot);
    for (uint32_t pos = 0; pos < count_; ++pos) {
      ProbeInsert(payload_->Slots(), payload_->index_capacity, members[pos],
                  pos);
    }
    payload_->index_used = count_;
  } else {
    std::fill_n(payload_->Positions(), payload_->index_capacity, kNoPosition);
    for (uint32_t pos = 0; pos < count_; ++pos) {
      assert(members[pos] < payload_->index_capacity);
      payload_->Positions()[members[pos]] = pos;
    }
  }
}

void RadixGroup::ReserveHashSlot(util::MemoryPool& pool) {
  if (HashNeedsGrowth(payload_->index_used, payload_->index_capacity)) {
    Reserve(payload_->member_capacity,
            static_cast<uint32_t>(GrownHashCapacity(count_)), pool);
  }
}

void RadixGroup::ReserveForInsert(uint32_t idx, util::MemoryPool& pool) {
  uint32_t members = payload_->member_capacity;
  bool reallocate = false;
  if (count_ == members) {
    members = std::max(2u, members * 2);
    reallocate = true;
  }
  uint32_t index = payload_->index_capacity;
  if (kind_ == GroupKind::kRegular) {
    if (idx >= index) {
      index = std::max(idx + 1, index * 2);
      reallocate = true;
    }
  } else if (HashNeedsGrowth(payload_->index_used, index)) {
    index = static_cast<uint32_t>(GrownHashCapacity(count_));
    reallocate = true;  // even at an unchanged capacity (see GrownHashCapacity)
  }
  if (reallocate) {
    Reserve(members, index, pool);
  }
}

void RadixGroup::IndexSet(uint32_t idx, uint32_t pos) {
  if (kind_ == GroupKind::kRegular) {
    payload_->Positions()[idx] = pos;
    return;
  }
  const std::size_t slot =
      ProbeFind(payload_->Slots(), payload_->index_capacity, idx);
  if (slot != payload_->index_capacity) {
    payload_->Slots()[slot] = PackSlot(idx, pos);
  } else if (ProbeInsert(payload_->Slots(), payload_->index_capacity, idx,
                         pos)) {
    ++payload_->index_used;
  }
}

void RadixGroup::IndexErase(uint32_t idx) {
  if (kind_ == GroupKind::kRegular) {
    payload_->Positions()[idx] = kNoPosition;
    return;
  }
  const std::size_t slot =
      ProbeFind(payload_->Slots(), payload_->index_capacity, idx);
  assert(slot != payload_->index_capacity);
  payload_->Slots()[slot] = kTombstoneSlot;
}

uint32_t RadixGroup::IndexFind(uint32_t idx) const {
  if (kind_ == GroupKind::kRegular) {
    return idx < payload_->index_capacity ? payload_->Positions()[idx]
                                          : kNoPosition;
  }
  const std::size_t slot =
      ProbeFind(payload_->Slots(), payload_->index_capacity, idx);
  return slot == payload_->index_capacity
             ? kNoPosition
             : static_cast<uint32_t>(payload_->Slots()[slot]);
}

void RadixGroup::Insert(uint32_t idx, uint32_t degree_hint,
                        util::MemoryPool& pool) {
  switch (kind_) {
    case GroupKind::kEmpty:
      kind_ = GroupKind::kOneElement;
      single_ = idx;
      break;
    case GroupKind::kOneElement: {
      // Escalate to regular; the post-op reclassification settles the kind.
      const uint32_t existing = single_;
      const uint32_t both[2] = {existing, idx};
      RebuildAs(GroupKind::kRegular, both, degree_hint, pool);
      return;  // RebuildAs set count_ already
    }
    case GroupKind::kDense:
      break;  // count only
    case GroupKind::kSparse:
    case GroupKind::kRegular:
      ReserveForInsert(idx, pool);
      IndexSet(idx, count_);
      payload_->Members()[count_] = idx;
      break;
  }
  ++count_;
}

void RadixGroup::RemoveAtPosition(uint32_t pos) {
  uint32_t* members = payload_->Members();
  const uint32_t last = count_ - 1;
  const uint32_t removed = members[pos];
  if (pos != last) {
    const uint32_t moved = members[last];
    members[pos] = moved;
    IndexSet(moved, pos);
  }
  IndexErase(removed);
}

void RadixGroup::Remove(uint32_t idx, util::MemoryPool& pool) {
  assert(count_ > 0);
  switch (kind_) {
    case GroupKind::kEmpty:
      assert(false && "remove from empty group");
      return;
    case GroupKind::kDense:
      break;  // count only
    case GroupKind::kOneElement:
      assert(single_ == idx);
      break;
    case GroupKind::kSparse:
    case GroupKind::kRegular: {
      const uint32_t pos = IndexFind(idx);
      assert(pos != kNoPosition);
      RemoveAtPosition(pos);
      break;
    }
  }
  --count_;
  if (count_ == 0) {
    Clear(pool);
  }
}

void RadixGroup::Rename(uint32_t from, uint32_t to, util::MemoryPool& pool) {
  switch (kind_) {
    case GroupKind::kEmpty:
    case GroupKind::kDense:
      return;
    case GroupKind::kOneElement:
      if (single_ == from) {
        single_ = to;
      }
      return;
    case GroupKind::kSparse:
    case GroupKind::kRegular: {
      if (kind_ == GroupKind::kSparse) {
        ReserveHashSlot(pool);
      } else if (to >= payload_->index_capacity) {
        Reserve(payload_->member_capacity,
                std::max(to + 1, payload_->index_capacity * 2), pool);
      }
      const uint32_t pos = IndexFind(from);
      assert(pos != kNoPosition);
      payload_->Members()[pos] = to;
      IndexErase(from);
      IndexSet(to, pos);
      return;
    }
  }
}

void RadixGroup::BatchRemove(std::span<const uint32_t> idxs,
                             util::MemoryPool& pool) {
  if (idxs.empty()) {
    return;
  }
  if (kind_ == GroupKind::kDense) {
    assert(idxs.size() <= count_);
    count_ -= static_cast<uint32_t>(idxs.size());
    if (count_ == 0) {
      Clear(pool);
    }
    return;
  }
  if (kind_ == GroupKind::kOneElement) {
    assert(idxs.size() == 1 && idxs[0] == single_);
    Clear(pool);
    return;
  }

  // Two-phase parallel delete-and-swap (Fig 10b). Positions to delete:
  std::vector<uint32_t> positions;
  positions.reserve(idxs.size());
  for (uint32_t idx : idxs) {
    const uint32_t pos = IndexFind(idx);
    assert(pos != kNoPosition);
    positions.push_back(pos);
  }
  uint32_t* members = payload_->Members();
  const uint32_t m = count_;
  const uint32_t n = static_cast<uint32_t>(positions.size());
  const uint32_t window_begin = m - n;
  std::sort(positions.begin(), positions.end());

  // Phase 1: within the tail window [m-n, m), drop the gamma entries that
  // are themselves scheduled for deletion; the survivors are the fillers.
  std::vector<uint32_t> fillers;  // member values, window order preserved
  {
    std::size_t cursor = std::lower_bound(positions.begin(), positions.end(),
                                          window_begin) -
                         positions.begin();
    for (uint32_t pos = window_begin; pos < m; ++pos) {
      if (cursor < positions.size() && positions[cursor] == pos) {
        ++cursor;  // scheduled for deletion: skip
      } else {
        fillers.push_back(members[pos]);
      }
    }
  }

  // Erase inverted-index entries for every deleted member before moves
  // overwrite their slots.
  for (uint32_t pos : positions) {
    IndexErase(members[pos]);
  }

  // Phase 2: the n - gamma holes in the front are filled by the n - gamma
  // guaranteed-surviving fillers from the tail.
  std::size_t filler_cursor = 0;
  for (uint32_t pos : positions) {
    if (pos >= window_begin) {
      break;  // positions are sorted; the rest are in the window
    }
    const uint32_t moved = fillers[filler_cursor++];
    members[pos] = moved;
    IndexSet(moved, pos);
  }
  assert(filler_cursor == fillers.size());

  count_ -= n;
  if (count_ == 0) {
    Clear(pool);
  }
}

void RadixGroup::RebuildAs(GroupKind target, std::span<const uint32_t> members,
                           uint32_t degree_hint, util::MemoryPool& pool) {
  Clear(pool);
  kind_ = target;
  switch (target) {
    case GroupKind::kEmpty:
      assert(members.empty());
      return;
    case GroupKind::kDense:
      break;
    case GroupKind::kOneElement:
      assert(members.size() == 1);
      single_ = members[0];
      break;
    case GroupKind::kSparse:
    case GroupKind::kRegular: {
      // Member headroom is what the payload's size class leaves over.
      const uint32_t member_capacity =
          std::max<uint32_t>(static_cast<uint32_t>(members.size()), 1);
      uint32_t index_capacity;
      if (target == GroupKind::kSparse) {
        index_capacity = static_cast<uint32_t>(
            HashCapacityFor(std::max<std::size_t>(members.size(), 4)));
      } else {
        index_capacity = std::max<uint32_t>(degree_hint, 1);
        for (const uint32_t idx : members) {
          index_capacity = std::max(index_capacity, idx + 1);
        }
      }
      Reserve(member_capacity, index_capacity, pool);  // empty: count_ is 0
      std::copy(members.begin(), members.end(), payload_->Members());
      count_ = static_cast<uint32_t>(members.size());
      RebuildIndex();
      return;
    }
  }
  count_ = static_cast<uint32_t>(members.size());
}

void RadixGroup::CollectMembers(std::vector<uint32_t>& out) const {
  switch (kind_) {
    case GroupKind::kEmpty:
      return;
    case GroupKind::kDense:
      assert(false && "dense groups do not store members");
      return;
    case GroupKind::kOneElement:
      out.push_back(single_);
      return;
    case GroupKind::kSparse:
    case GroupKind::kRegular:
      out.insert(out.end(), payload_->Members(), payload_->Members() + count_);
      return;
  }
}

bool RadixGroup::Contains(uint32_t idx) const {
  switch (kind_) {
    case GroupKind::kEmpty:
      return false;
    case GroupKind::kDense:
      assert(false && "dense groups cannot answer membership");
      return false;
    case GroupKind::kOneElement:
      return single_ == idx;
    case GroupKind::kSparse:
    case GroupKind::kRegular:
      return IndexFind(idx) != kNoPosition;
  }
  return false;
}

void RadixGroup::Clear(util::MemoryPool& pool) {
  if (HasPayload()) {
    pool.Deallocate(payload_, MemoryBytes());
  }
  kind_ = GroupKind::kEmpty;
  count_ = 0;
  payload_ = nullptr;
}

std::size_t RadixGroup::MemoryBytes() const {
  if (!HasPayload()) {
    return 0;
  }
  return sizeof(Payload) +
         std::size_t{payload_->member_capacity} * sizeof(uint32_t) +
         std::size_t{payload_->index_capacity} * IndexEntryBytes();
}

std::string RadixGroup::CheckInvariants() const {
  switch (kind_) {
    case GroupKind::kEmpty:
      if (count_ != 0 || payload_ != nullptr) {
        return "empty group with residual state";
      }
      return {};
    case GroupKind::kDense:
      if (payload_ != nullptr) {
        return "dense group with a payload";
      }
      return {};  // count is validated by the vertex-level audit
    case GroupKind::kOneElement:
      if (count_ != 1 || single_ == kNoPosition) {
        return "one-element group inconsistent";
      }
      return {};
    case GroupKind::kSparse: {
      if (count_ > payload_->member_capacity) {
        return "sparse group count exceeds its member capacity";
      }
      uint32_t live = 0;
      uint32_t used = 0;
      for (uint32_t slot = 0; slot < payload_->index_capacity; ++slot) {
        const uint64_t value = payload_->Slots()[slot];
        used += value != kEmptySlot;
        live += value != kEmptySlot && value != kTombstoneSlot;
      }
      if (live != count_ || used != payload_->index_used) {
        return "sparse group count/map size mismatch";
      }
      for (uint32_t pos = 0; pos < count_; ++pos) {
        if (IndexFind(payload_->Members()[pos]) != pos) {
          return "sparse inverted index mismatch";
        }
      }
      return {};
    }
    case GroupKind::kRegular: {
      if (count_ > payload_->member_capacity) {
        return "regular group count exceeds its member capacity";
      }
      const uint32_t* members = payload_->Members();
      const uint32_t* inv = payload_->Positions();
      for (uint32_t pos = 0; pos < count_; ++pos) {
        if (IndexFind(members[pos]) != pos) {
          return "regular inverted index mismatch";
        }
      }
      uint32_t live = 0;
      for (uint32_t idx = 0; idx < payload_->index_capacity; ++idx) {
        if (inv[idx] != kNoPosition) {
          ++live;
          if (inv[idx] >= count_ || members[inv[idx]] != idx) {
            return "regular inverted index points to wrong member";
          }
        }
      }
      if (live != count_) {
        return "regular inverted index live-count mismatch";
      }
      return {};
    }
  }
  return {};
}

}  // namespace bingo::core
