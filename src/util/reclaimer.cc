#include "src/util/reclaimer.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <iterator>
#include <utility>

namespace bingo::util {

namespace {
template <typename Pins>
auto FindPin(Pins& pins, uint64_t version) {
  return std::lower_bound(
      pins.begin(), pins.end(), version,
      [](const auto& pin, uint64_t v) { return pin.first < v; });
}
}  // namespace

void EpochReclaimer::Pin(uint64_t version) {
  MutexLock lock(mutex_);
  const auto it = FindPin(pins_, version);
  if (it != pins_.end() && it->first == version) {
    ++it->second;
  } else {
    pins_.insert(it, {version, 1});
  }
}

void EpochReclaimer::Unpin(uint64_t version) {
  std::vector<Retired> freeable;
  {
    MutexLock lock(mutex_);
    const auto it = FindPin(pins_, version);
    if (it != pins_.end() && it->first == version && --it->second == 0) {
      pins_.erase(it);
    }
    freeable = TakeFreeableLocked();
  }
  Free(freeable);
}

std::size_t EpochReclaimer::Views() const {
  MutexLock lock(mutex_);
  std::size_t views = 0;
  for (const auto& pin : pins_) {
    views += static_cast<std::size_t>(pin.second);
  }
  return views;
}

void EpochReclaimer::Retire(uint64_t version, std::size_t bytes,
                            std::function<void()> free) {
  std::vector<Retired> freeable;
  retired_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  {
    MutexLock lock(mutex_);
    retired_.push_back(Retired{version, bytes, std::move(free)});
    freeable = TakeFreeableLocked();
  }
  Free(freeable);
}

void EpochReclaimer::FreeAll() {
  std::vector<Retired> all;
  {
    MutexLock lock(mutex_);
    all.assign(std::make_move_iterator(retired_.begin()),
               std::make_move_iterator(retired_.end()));
    retired_.clear();
    if (!all.empty()) {
      freed_through_.store(
          std::max(freed_through_.load(std::memory_order_relaxed),
                   all.back().version),
          std::memory_order_release);
    }
  }
  Free(all);
}

std::vector<EpochReclaimer::Retired> EpochReclaimer::TakeFreeableLocked() {
  // Storage retired at r is reachable only from views below r.
  const uint64_t oldest_pin = pins_.empty() ? UINT64_MAX : pins_.front().first;
  std::vector<Retired> freeable;
  while (!retired_.empty() && retired_.front().version <= oldest_pin) {
    freeable.push_back(std::move(retired_.front()));
    retired_.pop_front();
  }
  if (!freeable.empty()) {
    // Published before the storage is released, so a view that checks
    // FreedThrough() never misses a free that already happened.
    freed_through_.store(freeable.back().version, std::memory_order_release);
  }
  return freeable;
}

void EpochReclaimer::Free(std::vector<Retired>& batch) {
  for (Retired& r : batch) {
    r.free();
    retired_bytes_.fetch_sub(r.bytes, std::memory_order_relaxed);
  }
}

EpochReclaimer::~EpochReclaimer() {
  FreeAll();
  // A store's memory pool takes its arenas from the C heap on whichever
  // threads carve them (the build pool's workers, the writer), so when the
  // store goes away (this reclaimer is the last of it to be destroyed) its
  // arenas return to those threads' allocator arenas, where other threads
  // do not reuse them. Give the free pages back to the operating system:
  // without this, float_bias peak RSS read 181 MiB instead of 153.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace bingo::util
