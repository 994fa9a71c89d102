// Size-class slab allocator for per-vertex storage (Hornet's design,
// substitution S5 in DESIGN.md).
//
// Hornet keeps per-vertex dynamic arrays in pooled blocks, so that growing
// a vertex's neighbor list is a free-list pop instead of a device
// allocation. The paper attributes Bingo's deletion-faster-than-insertion
// behaviour (§6.2) to exactly this: freed blocks go back to the free list
// and are recycled "offline", while insertion may have to grow into a
// fresh block immediately.
//
// A store's pool serves every per-vertex byte it owns: adjacency blocks,
// finders, sampler blocks, group and decimal payloads, and the pages of
// its copy-on-write tables (the shards of a sharded service share one
// pool, so a batch's later shards reuse what its earlier shards' new
// versions superseded). Executors also own one, for walk scratch
// (util/scratch.h). A copy-on-write writer allocates a vertex's new version
// on one thread while the version it supersedes is often freed on another
// (the reclaimer runs wherever the last view is released); blocks of one
// size class are interchangeable, so the next copy reuses the freed block
// whichever thread freed it.
//
// Size classes: 16-byte steps up to 128 bytes, then four classes per
// doubling (160, 192, 224, 256, 320, ...). Every class is a multiple of 16
// (blocks are 16-byte aligned), powers of two are exact classes, and a
// request wastes less than one class spacing: at most 15 bytes below
// 128 bytes, under a fifth of the block above.
//
// The pool is sharded so parallel writers do not serialize on one lock. On
// an executor worker the shard is the WORKER ID modulo kNumShards — an
// exact round-robin, so the workers of one pool can never collide onto a
// single shard (the old thread-identity stripe could: identities are
// assigned per thread creation across the whole process, and unrelated
// short-lived threads burn stripe slots). Off-pool threads still use the
// process-wide stripe. A block is freed onto the freeing thread's shard.
// A shard whose free list misses STEALS a block of that class from a
// sibling shard before carving fresh arena space: readers that free old
// versions and the writer that allocates new ones sit on different shards,
// and the steal is what lets the writer reuse their blocks. Each shard
// publishes which of its free lists are non-empty, so a miss probes
// siblings without taking their locks.
//
// Arenas are 256 KiB chunks of the C++ heap, small enough to be served from
// memory the rest of the process freed; they go back to the heap when the
// pool is destroyed, never before. Blocks above a quarter arena are chunks
// of their own (still recycled by class); blocks above `kMaxClassBytes`
// bypass the classes.

#ifndef BINGO_SRC_UTIL_MEMORY_POOL_H_
#define BINGO_SRC_UTIL_MEMORY_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/sync.h"

namespace bingo::util {

class MemoryPool {
 public:
  static constexpr std::size_t kMinClassBytes = 16;
  static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 26;  // 64 MiB
  static constexpr std::size_t kArenaBytes = std::size_t{1} << 18;  // 256 KiB
  static constexpr int kNumShards = 8;

  MemoryPool() = default;
  ~MemoryPool();

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  // Returns a 16-byte aligned block of at least `bytes` bytes (rounded up
  // to its size class). `bytes == 0` returns nullptr. Thread-safe.
  void* Allocate(std::size_t bytes);

  // Returns a block obtained from Allocate(bytes). The same `bytes` value
  // (pre-rounding) must be passed back. Thread-safe; any thread may free a
  // block any other thread allocated.
  void Deallocate(void* ptr, std::size_t bytes);

  // Capacity actually reserved for a request of `bytes` (its size class).
  static std::size_t ClassSize(std::size_t bytes);

  // Bytes held in arenas plus oversize allocations (i.e. what the pool has
  // taken from the system).
  std::size_t ReservedBytes() const;

  // Bytes currently handed out to callers (rounded to class sizes).
  std::size_t LiveBytes() const;

  // Allocation-path accounting, summed over shards. In a warm steady state
  // every Allocate is a free-list hit: tests pin "zero per-call buffer
  // allocations" by asserting `carves + oversize` stops growing.
  struct AllocStats {
    uint64_t allocations = 0;     // Allocate() calls served
    uint64_t free_list_hits = 0;  // served by recycling a freed block
    uint64_t carves = 0;          // served by carving (maybe new) arena space
    uint64_t oversize = 0;        // served by a heap chunk of its own
    // Allocations that the pool had to take fresh memory for.
    uint64_t FreshAllocations() const { return carves + oversize; }
  };
  AllocStats Stats() const;

  // Shard the calling thread would allocate from right now (worker id on an
  // executor thread, process-wide stripe otherwise). Exposed so tests can
  // assert the contention story: distinct workers => distinct shards.
  static int CurrentShardIndex();

 private:
  // 8 classes of 16 B steps up to 128 B, then 4 per doubling up to 64 MiB.
  static constexpr int kNumClasses = 8 + 4 * 19;

  // A free block's first word links it to the next free block.
  struct FreeBlock {
    FreeBlock* next;
  };

  struct Shard {
    mutable Mutex mutex;
    std::vector<std::pair<std::byte*, std::size_t>> arenas
        BINGO_GUARDED_BY(mutex);  // (base, bytes) of each chunk
    std::byte* arena_cursor BINGO_GUARDED_BY(mutex) = nullptr;
    std::byte* arena_end BINGO_GUARDED_BY(mutex) = nullptr;
    // Signed deltas: a block (or oversize allocation) may be freed via a
    // different shard than it was taken from; only the cross-shard sums are
    // meaningful, and those are always the true totals.
    std::ptrdiff_t reserved_bytes BINGO_GUARDED_BY(mutex) = 0;
    std::ptrdiff_t live_bytes BINGO_GUARDED_BY(mutex) = 0;
    uint64_t allocations BINGO_GUARDED_BY(mutex) = 0;
    uint64_t free_list_hits BINGO_GUARDED_BY(mutex) = 0;
    uint64_t carves BINGO_GUARDED_BY(mutex) = 0;
    uint64_t oversize BINGO_GUARDED_BY(mutex) = 0;
    FreeBlock* free_lists[kNumClasses] BINGO_GUARDED_BY(mutex) = {};
    // Bit c of word c / 64: free_lists[c] is non-empty. Written under the
    // mutex, read without it by siblings looking for a block to steal.
    std::atomic<uint64_t> nonempty[2] = {};
  };

  static int ClassIndex(std::size_t bytes);
  static std::size_t ClassBytes(int class_index);

  // Pops a block of `class_index` off `shard`'s free list, or nullptr.
  static void* PopLocked(Shard& shard, int class_index)
      BINGO_REQUIRES(shard.mutex);
  // Pops a block of `class_index` off `victim`'s free list for an
  // allocation on `shard`; nullptr if the victim has none.
  static void* Steal(Shard& shard, Shard& victim, int class_index);
  static void MarkNonEmpty(Shard& shard, int class_index, bool nonempty)
      BINGO_REQUIRES(shard.mutex);

  std::array<Shard, kNumShards> shards_;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_MEMORY_POOL_H_
