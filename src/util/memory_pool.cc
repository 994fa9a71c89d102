#include "src/util/memory_pool.h"

#include <algorithm>
#include <new>

#include "src/util/bitops.h"
#include "src/util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#define BINGO_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BINGO_POOL_ASAN 1
#endif
#endif

#ifdef BINGO_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

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

// Arenas and oversize blocks come from the C++ heap: an arena is small
// enough to be served from memory the rest of the process freed, and goes
// back to it when the pool dies.
std::byte* NewChunk(std::size_t bytes) {
  return static_cast<std::byte*>(::operator new(bytes));
}

void DeleteChunk(void* chunk) { ::operator delete(chunk); }

// Under AddressSanitizer a block reads as unaddressable while it is free,
// and so does the slack between a request and its class size.
void Poison([[maybe_unused]] const void* begin,
            [[maybe_unused]] std::size_t bytes) {
#ifdef BINGO_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(begin, bytes);
#endif
}
void Unpoison([[maybe_unused]] const void* begin,
              [[maybe_unused]] std::size_t bytes) {
#ifdef BINGO_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(begin, bytes);
#endif
}

// Hands a block of class size `cls` to a caller that asked for `bytes`.
void* Lease(void* block, std::size_t bytes, std::size_t cls) {
  Unpoison(block, bytes);
  Poison(static_cast<std::byte*>(block) + bytes, cls - bytes);
  return block;
}
}  // namespace

MemoryPool::~MemoryPool() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& [base, bytes] : shard.arenas) {
      Unpoison(base, bytes);
      DeleteChunk(base);
    }
  }
}

int MemoryPool::ClassIndex(std::size_t bytes) {
  const std::size_t b = std::max(bytes, kMinClassBytes);
  if (b <= 128) {
    return static_cast<int>((b + 15) / 16) - 1;
  }
  const int k = HighestBit(b - 1);  // 2^k < b <= 2^(k+1)
  const std::size_t step = std::size_t{1} << (k - 2);
  const std::size_t sub = (b - (std::size_t{1} << k) + step - 1) / step;
  return 8 + (k - 7) * 4 + static_cast<int>(sub) - 1;
}

std::size_t MemoryPool::ClassBytes(int class_index) {
  if (class_index < 8) {
    return 16 * static_cast<std::size_t>(class_index + 1);
  }
  const int j = class_index - 8;
  const int k = 7 + j / 4;
  return (std::size_t{1} << k) +
         static_cast<std::size_t>(j % 4 + 1) * (std::size_t{1} << (k - 2));
}

std::size_t MemoryPool::ClassSize(std::size_t bytes) {
  if (bytes > kMaxClassBytes) {
    return bytes;
  }
  return ClassBytes(ClassIndex(bytes));
}

int MemoryPool::CurrentShardIndex() {
  const int worker = ThreadPool::CurrentWorkerId();
  if (worker >= 0) {
    return worker % kNumShards;
  }
  return ThreadStripeIndex() % kNumShards;
}

void MemoryPool::MarkNonEmpty(Shard& shard, int class_index, bool nonempty) {
  std::atomic<uint64_t>& word = shard.nonempty[class_index / 64];
  const uint64_t bit = uint64_t{1} << (class_index % 64);
  const uint64_t old = word.load(std::memory_order_relaxed);
  word.store(nonempty ? old | bit : old & ~bit, std::memory_order_relaxed);
}

void* MemoryPool::PopLocked(Shard& shard, int class_index) {
  FreeBlock* head = shard.free_lists[class_index];
  if (head == nullptr) {
    return nullptr;
  }
  Unpoison(head, sizeof(FreeBlock));
  shard.free_lists[class_index] = head->next;
  if (head->next == nullptr) {
    MarkNonEmpty(shard, class_index, false);
  }
  return head;
}

void* MemoryPool::Steal(Shard& shard, Shard& victim, int class_index) {
  const uint64_t bit = uint64_t{1} << (class_index % 64);
  if ((victim.nonempty[class_index / 64].load(std::memory_order_relaxed) &
       bit) == 0) {
    return nullptr;  // probed without the victim's lock
  }
  void* block = nullptr;
  {
    MutexLock lock(victim.mutex);
    block = PopLocked(victim, class_index);
  }
  if (block != nullptr) {
    MutexLock lock(shard.mutex);
    ++shard.free_list_hits;
  }
  return block;
}

void* MemoryPool::Allocate(std::size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  const int self = CurrentShardIndex();
  Shard& shard = shards_[self];
  if (bytes > kMaxClassBytes) {
    std::byte* block = NewChunk(bytes);
    MutexLock lock(shard.mutex);
    ++shard.allocations;
    ++shard.oversize;
    shard.live_bytes += static_cast<std::ptrdiff_t>(bytes);
    shard.reserved_bytes += static_cast<std::ptrdiff_t>(bytes);
    return block;
  }
  const int class_index = ClassIndex(bytes);
  const std::size_t cls = ClassBytes(class_index);
  {
    MutexLock lock(shard.mutex);
    ++shard.allocations;
    shard.live_bytes += static_cast<std::ptrdiff_t>(cls);
    if (void* block = PopLocked(shard, class_index)) {
      ++shard.free_list_hits;
      return Lease(block, bytes, cls);
    }
  }
  // Local miss: take a sibling shard's recycled blocks of this class before
  // carving fresh memory. Versions are allocated by the writer and freed
  // by whichever thread releases the last view of them; scratch buffers
  // are leased on executor workers but often freed by the blocking caller.
  // Without the steal, freed blocks would pile up on the freeing shards
  // while the allocating shard keeps carving.
  for (int i = 1; i < kNumShards; ++i) {
    if (void* block = Steal(shard, shards_[(self + i) % kNumShards],
                            class_index)) {
      return Lease(block, bytes, cls);
    }
  }
  // Carve from the shard's newest arena; start a new one if it won't fit.
  // A block of more than a quarter arena is a chunk of its own, so that an
  // arena never strands a large tail.
  MutexLock lock(shard.mutex);
  ++shard.carves;
  if (cls > kArenaBytes / 4) {
    std::byte* base = NewChunk(cls);
    shard.arenas.emplace_back(base, cls);
    shard.reserved_bytes += static_cast<std::ptrdiff_t>(cls);
    return Lease(base, bytes, cls);
  }
  if (static_cast<std::size_t>(shard.arena_end - shard.arena_cursor) < cls) {
    std::byte* base = NewChunk(kArenaBytes);
    Poison(base, kArenaBytes);
    shard.arenas.emplace_back(base, kArenaBytes);
    shard.arena_cursor = base;
    shard.arena_end = base + kArenaBytes;
    shard.reserved_bytes += static_cast<std::ptrdiff_t>(kArenaBytes);
  }
  void* block = shard.arena_cursor;
  shard.arena_cursor += cls;
  return Lease(block, bytes, cls);
}

void MemoryPool::Deallocate(void* ptr, std::size_t bytes) {
  if (ptr == nullptr || bytes == 0) {
    return;
  }
  Shard& shard = shards_[CurrentShardIndex()];
  if (bytes > kMaxClassBytes) {
    DeleteChunk(ptr);
    MutexLock lock(shard.mutex);
    shard.live_bytes -= static_cast<std::ptrdiff_t>(bytes);
    shard.reserved_bytes -= static_cast<std::ptrdiff_t>(bytes);
    return;
  }
  const int class_index = ClassIndex(bytes);
  const std::size_t cls = ClassBytes(class_index);
  Unpoison(ptr, sizeof(FreeBlock));
  auto* block = static_cast<FreeBlock*>(ptr);
  MutexLock lock(shard.mutex);
  shard.live_bytes -= static_cast<std::ptrdiff_t>(cls);
  if (shard.free_lists[class_index] == nullptr) {
    MarkNonEmpty(shard, class_index, true);
  }
  block->next = shard.free_lists[class_index];
  shard.free_lists[class_index] = block;
  Poison(block, cls);
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
