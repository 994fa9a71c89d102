#include "src/util/memory_pool.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <thread>

#include "src/util/bitops.h"
#include "src/util/thread_pool.h"

namespace bingo::util {

namespace {
// Stable per-thread stripe for OFF-pool threads, round-robin across thread
// creation order. Executor workers never reach this — their shard is their
// worker id, which is dense within a pool by construction.
int ThreadStripeIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}
}  // namespace

std::size_t MemoryPool::ClassSize(std::size_t bytes) {
  return CeilPow2(std::max(bytes, kMinClassBytes));
}

int MemoryPool::ClassIndex(std::size_t bytes) {
  const std::size_t cls = ClassSize(bytes);
  return HighestBit(cls) - HighestBit(kMinClassBytes);
}

int MemoryPool::CurrentShardIndex() {
  const int worker = ThreadPool::CurrentWorkerId();
  if (worker >= 0) {
    return worker % kNumShards;
  }
  return ThreadStripeIndex() % kNumShards;
}

MemoryPool::Shard& MemoryPool::LocalShard() {
  return shards_[CurrentShardIndex()];
}

void* MemoryPool::Allocate(std::size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  const std::size_t cls = ClassSize(bytes);
  const int self = CurrentShardIndex();
  Shard& shard = shards_[self];
  const int class_index = ClassIndex(bytes);
  {
    MutexLock lock(shard.mutex);
    ++shard.allocations;
    shard.live_bytes += static_cast<std::ptrdiff_t>(cls);
    if (cls > kMaxClassBytes) {
      shard.reserved_bytes += cls;
      ++shard.oversize;
      return ::operator new(cls);
    }
    auto& free_list = shard.free_lists[class_index];
    if (!free_list.empty()) {
      void* block = free_list.back();
      free_list.pop_back();
      ++shard.free_list_hits;
      return block;
    }
  }
  // Local miss: steal a recycled block of this class from a sibling shard
  // before carving fresh memory. Scratch buffers are leased on executor
  // workers but often freed by the blocking caller (a different shard) —
  // without the steal, blocks would pile up on the caller's shard while
  // every worker keeps carving, and the steady state would never become
  // allocation-free. Locks are taken one shard at a time (no ordering
  // hazard); the scan only runs on the miss path.
  for (int i = 1; i < kNumShards; ++i) {
    Shard& victim = shards_[(self + i) % kNumShards];
    void* block = nullptr;
    {
      MutexLock lock(victim.mutex);
      auto& free_list = victim.free_lists[class_index];
      if (!free_list.empty()) {
        block = free_list.back();
        free_list.pop_back();
      }
    }
    if (block != nullptr) {
      MutexLock lock(shard.mutex);
      ++shard.free_list_hits;
      return block;
    }
  }
  // Carve from the shard's newest arena; start a new arena if it won't fit.
  MutexLock lock(shard.mutex);
  const std::size_t arena_size = std::max(cls, kArenaBytes);
  if (shard.arenas.empty() || shard.arena_used + cls > kArenaBytes ||
      cls > kArenaBytes) {
    // Not zero-filled: an arena's pages become resident only as blocks are
    // carved from it.
    shard.arenas.push_back(
        std::make_unique_for_overwrite<std::byte[]>(arena_size));
    shard.arena_used = 0;
    shard.reserved_bytes += arena_size;
  }
  void* block = shard.arenas.back().get() + shard.arena_used;
  shard.arena_used += cls;
  ++shard.carves;
  return block;
}

void MemoryPool::Deallocate(void* ptr, std::size_t bytes) {
  if (ptr == nullptr || bytes == 0) {
    return;
  }
  const std::size_t cls = ClassSize(bytes);
  Shard& shard = LocalShard();
  MutexLock lock(shard.mutex);
  shard.live_bytes -= static_cast<std::ptrdiff_t>(cls);
  if (cls > kMaxClassBytes) {
    shard.reserved_bytes -= static_cast<std::ptrdiff_t>(cls);
    ::operator delete(ptr);
    return;
  }
  shard.free_lists[ClassIndex(bytes)].push_back(ptr);
}

std::size_t MemoryPool::ReservedBytes() const {
  std::ptrdiff_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.reserved_bytes;
  }
  return static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, total));
}

std::size_t MemoryPool::LiveBytes() const {
  std::ptrdiff_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.live_bytes;
  }
  return static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, total));
}

MemoryPool::AllocStats MemoryPool::Stats() const {
  AllocStats stats;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    stats.allocations += shard.allocations;
    stats.free_list_hits += shard.free_list_hits;
    stats.carves += shard.carves;
    stats.oversize += shard.oversize;
  }
  return stats;
}

}  // namespace bingo::util
