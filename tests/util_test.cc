// Unit tests for src/util: RNG, bit ops, stats, memory pool, thread pool,
// CRC-32C.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/bitops.h"
#include "src/util/checksum.h"
#include "src/util/cpu_features.h"
#include "src/util/histogram.h"
#include "src/util/memory_pool.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace bingo::util {
namespace {

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, StreamsAreIndependentAndDeterministic) {
  Rng s0 = Rng::ForStream(99, 0);
  Rng s0_again = Rng::ForStream(99, 0);
  Rng s1 = Rng::ForStream(99, 1);
  EXPECT_EQ(s0.Next(), s0_again.Next());
  EXPECT_NE(s0.Next(), s1.Next());
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedZeroAndOneReturnZero) {
  Rng rng(7);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(42);
  constexpr uint64_t kBound = 10;
  constexpr uint64_t kSamples = 100000;
  std::vector<uint64_t> counts(kBound, 0);
  for (uint64_t i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBounded(kBound)];
  }
  const std::vector<double> expected(kBound, 1.0 / kBound);
  EXPECT_TRUE(ChiSquareTestPasses(counts, expected));
}

TEST(RngTest, NextUnitInHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(11);
  int heads = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kTrials, 0.3, 0.01);
}

// ---------------------------------------------------------------- bitops --

TEST(BitopsTest, Popcount) {
  EXPECT_EQ(Popcount(0), 0);
  EXPECT_EQ(Popcount(1), 1);
  EXPECT_EQ(Popcount(0b1011), 3);
  EXPECT_EQ(Popcount(~uint64_t{0}), 64);
}

TEST(BitopsTest, HighestAndLowestBit) {
  EXPECT_EQ(HighestBit(1), 0);
  EXPECT_EQ(HighestBit(0b1000), 3);
  EXPECT_EQ(HighestBit(uint64_t{1} << 63), 63);
  EXPECT_EQ(LowestBit(0b1000), 3);
  EXPECT_EQ(LowestBit(0b1010), 1);
}

TEST(BitopsTest, CeilPow2) {
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(1023), 1024u);
  EXPECT_EQ(CeilPow2(1024), 1024u);
}

TEST(BitopsTest, ForEachSetBitVisitsAllBitsLowestFirst) {
  std::vector<int> bits;
  ForEachSetBit(0b101101, [&](int k) { bits.push_back(k); });
  EXPECT_EQ(bits, (std::vector<int>{0, 2, 3, 5}));
  ForEachSetBit(0, [&](int) { FAIL() << "no bits expected"; });
}

// ----------------------------------------------------------------- stats --

TEST(StatsTest, ChiSquareAcceptsMatchingDistribution) {
  Rng rng(3);
  const std::vector<double> probs = {0.5, 0.3, 0.2};
  std::vector<uint64_t> counts(3, 0);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.NextUnit();
    ++counts[u < 0.5 ? 0 : (u < 0.8 ? 1 : 2)];
  }
  EXPECT_TRUE(ChiSquareTestPasses(counts, probs));
}

TEST(StatsTest, ChiSquareRejectsWrongDistribution) {
  // Claim uniform, feed heavily skewed counts.
  const std::vector<double> probs = {0.25, 0.25, 0.25, 0.25};
  const std::vector<uint64_t> counts = {97000, 1000, 1000, 1000};
  EXPECT_FALSE(ChiSquareTestPasses(counts, probs));
}

TEST(StatsTest, ChiSquareCriticalMatchesKnownValues) {
  // chi^2 critical values at alpha=0.05: df=10 -> 18.31, df=30 -> 43.77.
  EXPECT_NEAR(ChiSquareCritical(10, 0.05), 18.31, 0.3);
  EXPECT_NEAR(ChiSquareCritical(30, 0.05), 43.77, 0.5);
}

TEST(StatsTest, TotalVariationDistance) {
  const std::vector<double> p = {0.5, 0.5};
  const std::vector<double> q = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(TotalVariationDistance(p, q), 0.5);
  EXPECT_DOUBLE_EQ(TotalVariationDistance(p, p), 0.0);
}

TEST(StatsTest, NormalizeSumsToOne) {
  const std::vector<double> w = {2.0, 6.0, 2.0};
  const auto probs = Normalize(w);
  EXPECT_DOUBLE_EQ(probs[0], 0.2);
  EXPECT_DOUBLE_EQ(probs[1], 0.6);
  EXPECT_DOUBLE_EQ(probs[2], 0.2);
}

TEST(StatsTest, NormalizeZeroTotalYieldsZeros) {
  const std::vector<double> w = {0.0, 0.0};
  const auto probs = Normalize(w);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.0);
}

// ----------------------------------------------------------- memory pool --

TEST(MemoryPoolTest, ClassSizeSpacing) {
  // 16-byte steps to 128 B, then four classes per doubling.
  EXPECT_EQ(MemoryPool::ClassSize(1), 16u);
  EXPECT_EQ(MemoryPool::ClassSize(16), 16u);
  EXPECT_EQ(MemoryPool::ClassSize(17), 32u);
  EXPECT_EQ(MemoryPool::ClassSize(100), 112u);
  EXPECT_EQ(MemoryPool::ClassSize(129), 160u);
  EXPECT_EQ(MemoryPool::ClassSize(200), 224u);
  EXPECT_EQ(MemoryPool::ClassSize(4096), 4096u);
  EXPECT_EQ(MemoryPool::ClassSize(4097), 5120u);
}

// Every class round-trips through Allocate/Deallocate, powers of two are
// exact classes, and no request wastes a class spacing or more: under 16 B
// up to 128 B, under a quarter of the class's lower power of two above.
TEST(MemoryPoolTest, EveryClassRoundTripsWithinItsSpacing) {
  MemoryPool pool;
  std::size_t previous = 0;
  for (std::size_t bytes = 1; bytes <= (std::size_t{1} << 20); ++bytes) {
    const std::size_t cls = MemoryPool::ClassSize(bytes);
    ASSERT_GE(cls, bytes);
    ASSERT_EQ(cls % 16, 0u) << bytes;
    const std::size_t spacing =
        bytes <= 128 ? 16 : std::bit_floor(bytes - 1) / 4;
    ASSERT_LT(cls - bytes, spacing) << bytes;
    if (std::has_single_bit(bytes) && bytes >= 16) {
      ASSERT_EQ(cls, bytes);
    }
    if (cls == previous) {
      continue;  // one round trip per class
    }
    previous = cls;
    void* block = pool.Allocate(bytes);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(block) % 16, 0u);
    std::memset(block, 0x5A, bytes);
    pool.Deallocate(block, bytes);
    EXPECT_EQ(pool.Allocate(cls), block) << "class " << cls;
    pool.Deallocate(block, cls);
  }
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

// A copy-on-write store allocates versions on its writer and frees the ones
// they supersede on whichever thread releases the last view: blocks freed
// on one thread must serve allocations on another without carving.
TEST(MemoryPoolTest, BlockFreedOnOneThreadServesAnother) {
  MemoryPool pool;
  constexpr int kBlocks = 512;
  constexpr std::size_t kBytes = 208;
  std::vector<void*> blocks(kBlocks);
  std::thread([&] {
    for (void*& block : blocks) {
      block = pool.Allocate(kBytes);
    }
  }).join();
  const uint64_t carves = pool.Stats().carves;
  std::thread([&] {
    for (void* block : blocks) {
      pool.Deallocate(block, kBytes);
    }
  }).join();
  std::set<void*> freed(blocks.begin(), blocks.end());
  std::thread([&] {
    for (void*& block : blocks) {
      block = pool.Allocate(kBytes);
    }
  }).join();
  EXPECT_EQ(pool.Stats().carves, carves);
  EXPECT_EQ(std::set<void*>(blocks.begin(), blocks.end()), freed);
  for (void* block : blocks) {
    pool.Deallocate(block, kBytes);
  }
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

TEST(MemoryPoolTest, AllocateReturnsDistinctWritableBlocks) {
  MemoryPool pool;
  void* a = pool.Allocate(100);
  void* b = pool.Allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  std::memset(a, 0xAB, 100);
  std::memset(b, 0xCD, 100);
  EXPECT_EQ(static_cast<unsigned char*>(a)[99], 0xAB);
  EXPECT_EQ(static_cast<unsigned char*>(b)[99], 0xCD);
}

TEST(MemoryPoolTest, FreedBlocksAreRecycled) {
  MemoryPool pool;
  void* a = pool.Allocate(1000);
  pool.Deallocate(a, 1000);
  void* b = pool.Allocate(1000);
  EXPECT_EQ(a, b);  // same size class -> free list pop
}

TEST(MemoryPoolTest, LiveBytesTracksClassSizes) {
  MemoryPool pool;
  EXPECT_EQ(pool.LiveBytes(), 0u);
  void* a = pool.Allocate(100);  // class 112
  EXPECT_EQ(pool.LiveBytes(), 112u);
  void* b = pool.Allocate(17);  // class 32
  EXPECT_EQ(pool.LiveBytes(), 144u);
  pool.Deallocate(a, 100);
  EXPECT_EQ(pool.LiveBytes(), 32u);
  pool.Deallocate(b, 17);
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

TEST(MemoryPoolTest, ZeroByteAllocationIsNull) {
  MemoryPool pool;
  EXPECT_EQ(pool.Allocate(0), nullptr);
  pool.Deallocate(nullptr, 0);  // must be a no-op
}

TEST(MemoryPoolTest, OversizeAllocationsFallThrough) {
  MemoryPool pool;
  const std::size_t big = MemoryPool::kMaxClassBytes * 2;
  void* p = pool.Allocate(big);
  ASSERT_NE(p, nullptr);
  static_cast<char*>(p)[big - 1] = 1;
  EXPECT_GE(pool.ReservedBytes(), big);
  pool.Deallocate(p, big);
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

TEST(MemoryPoolTest, ManySmallAllocationsSpanArenas) {
  MemoryPool pool;
  std::vector<void*> blocks;
  // > one arena worth of 4 KiB blocks
  const std::size_t count = MemoryPool::kArenaBytes / 4096 * 3;
  std::set<void*> unique;
  for (std::size_t i = 0; i < count; ++i) {
    void* p = pool.Allocate(4096);
    blocks.push_back(p);
    unique.insert(p);
  }
  EXPECT_EQ(unique.size(), blocks.size());
  EXPECT_GE(pool.ReservedBytes(), count * 4096);
  for (void* p : blocks) {
    pool.Deallocate(p, 4096);
  }
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

TEST(MemoryPoolTest, ShardSelectionFollowsExecutorWorkerId) {
  // Contention assertion: on executor workers the shard is the worker id
  // mod kNumShards — an exact round-robin, so the workers of one pool can
  // never all collide onto a single shard the way the old process-wide
  // thread stripe could (stripe slots are burned by every thread the
  // process ever creates, and 8 workers with stripe indices {k, k+8, ...}
  // all hash to one shard). Distinct workers => distinct shards, verified
  // on whichever workers execute.
  ThreadPool pool(MemoryPool::kNumShards);
  std::atomic<int> collisions{0};
  pool.ParallelFor(0, 4096, [&](std::size_t) {
    const int worker = ThreadPool::CurrentWorkerId();
    if (worker >= 0 &&
        MemoryPool::CurrentShardIndex() != worker % MemoryPool::kNumShards) {
      collisions.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(collisions.load(), 0);
}

TEST(MemoryPoolTest, FreeListMissStealsFromSiblingShardBeforeCarving) {
  // A block freed on one shard (the blocking caller) must satisfy the next
  // same-class lease on another shard (an executor worker) without fresh
  // arena carving — the property that makes walk chunk buffers
  // allocation-free in steady state. Force the cross-shard pattern: lease
  // and free on this thread, then lease the same class from pool workers.
  MemoryPool pool;
  constexpr std::size_t kBytes = 1 << 16;
  ThreadPool workers(2);
  void* warm = pool.Allocate(kBytes);
  pool.Deallocate(warm, kBytes);  // parked on this thread's shard
  const auto before = pool.Stats();
  std::atomic<void*> stolen{nullptr};
  // Post (not ParallelFor): the caller participates in its own parallel
  // regions, and the point here is a lease from a WORKER shard.
  workers.Post([&] {
    stolen.store(pool.Allocate(kBytes), std::memory_order_release);
  });
  for (int spin = 0; spin < 10000 && stolen.load() == nullptr; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto after = pool.Stats();
  ASSERT_NE(stolen.load(), nullptr);
  EXPECT_EQ(after.FreshAllocations(), before.FreshAllocations())
      << "the sibling shard's parked block must be stolen, not re-carved";
  EXPECT_EQ(after.free_list_hits, before.free_list_hits + 1);
  pool.Deallocate(stolen.load(), kBytes);
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

TEST(MemoryPoolTest, ParallelAllocateDeallocateStress) {
  // Cross-thread churn: each worker allocates, writes a pattern, verifies,
  // and frees; blocks freed by one thread may be recycled by another shard.
  MemoryPool pool;
  ThreadPool workers(4);
  std::atomic<int> failures{0};
  workers.ParallelFor(0, 2000, [&](std::size_t i) {
    Rng rng(i);
    const std::size_t bytes = 16 + rng.NextBounded(4000);
    auto* block = static_cast<unsigned char*>(pool.Allocate(bytes));
    const auto pattern = static_cast<unsigned char>(i & 0xFF);
    std::memset(block, pattern, bytes);
    if (block[0] != pattern || block[bytes - 1] != pattern) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
    pool.Deallocate(block, bytes);
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.LiveBytes(), 0u);
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForChunkedPartitionsContiguously) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.ParallelForChunked(5, 1005, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(lo, hi);
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(10, 10, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [](std::size_t i) {
                         if (i == 50) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::Global().ParallelFor(0, 100, [&](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 100);
}

// ----------------------------------------------------------------- timer --

TEST(TimerTest, AccumulatorSumsScopes) {
  TimeAccumulator acc;
  {
    ScopedAccumulator scope(acc);
  }
  {
    ScopedAccumulator scope(acc);
  }
  EXPECT_GE(acc.Seconds(), 0.0);
  acc.Reset();
  EXPECT_EQ(acc.Seconds(), 0.0);
}

TEST(TimerTest, TimerIsMonotonic) {
  Timer t;
  const double a = t.Seconds();
  const double b = t.Seconds();
  EXPECT_GE(b, a);
}

TEST(HistogramTest, QuantilesStayWithinObservedRange) {
  LatencyHistogram hist;
  hist.RecordSeconds(0.010);
  hist.RecordSeconds(0.020);
  hist.RecordSeconds(0.500);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_GE(hist.QuantileSeconds(q), hist.MinSeconds()) << "q=" << q;
    EXPECT_LE(hist.QuantileSeconds(q), hist.MaxSeconds()) << "q=" << q;
  }
  // A single sample collapses the clamp: every quantile IS the sample,
  // with no bucket-midpoint error.
  LatencyHistogram single;
  single.RecordSeconds(1.0);
  EXPECT_DOUBLE_EQ(single.QuantileSeconds(0.5), 1.0);
  EXPECT_DOUBLE_EQ(single.QuantileSeconds(0.99), 1.0);
}

TEST(HistogramTest, RecordSecondsDropsNanClampsNegative) {
  LatencyHistogram hist;
  hist.RecordSeconds(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(hist.Count(), 0u);
  hist.RecordSeconds(-5.0);  // a backwards clock step records as zero
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_DOUBLE_EQ(hist.MinSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(hist.QuantileSeconds(0.5), 0.0);
}

TEST(HistogramTest, RecordSecondsSaturatesHugeValues) {
  LatencyHistogram hist;
  hist.RecordSeconds(1e300);  // would be UB cast to uint64_t nanoseconds
  hist.RecordSeconds(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.Count(), 2u);
  const double cap = 1e-9 * 18446744073709551615.0;  // 2^64-1 ns in seconds
  EXPECT_NEAR(hist.MaxSeconds(), cap, 1.0);
  EXPECT_LE(hist.QuantileSeconds(0.99), hist.MaxSeconds());
}

TEST(HistogramTest, MergePreservesBoundsAndRanks) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.RecordSeconds(0.001);
  b.RecordSeconds(1.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.MinSeconds(), 0.001);
  EXPECT_DOUBLE_EQ(a.MaxSeconds(), 1.0);
  EXPECT_LE(a.QuantileSeconds(0.5), a.MaxSeconds());
  EXPECT_GE(a.QuantileSeconds(0.5), a.MinSeconds());
}

// --------------------------------------------------------------- Crc32c --

TEST(Crc32cTest, StandardCheckValueOnBothPaths) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, 9), 0xE3069283u);
  ScopedForceScalar table_path;
  EXPECT_EQ(Crc32c(check, 9), 0xE3069283u);
}

// The SSE4.2 path (active on AVX2 hosts) must return the table path's value
// for every length and alignment: lengths 0-257 cover the 8-byte main loop
// and every sub-word tail, start offsets 0-7 every load alignment, and each
// split point a chained seed carried across two buffers. On a host without
// AVX2 both sides take the table path.
TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  std::vector<unsigned char> buffer(8 + 257);
  Rng rng(0xc3c32c);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  const auto checksums = [&](const unsigned char* data, std::size_t len) {
    std::vector<uint32_t> out{Crc32c(data, len)};
    for (std::size_t split = 0; split <= len; ++split) {
      out.push_back(
          Crc32c(data + split, len - split, Crc32c(data, split)));
    }
    return out;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const unsigned char* data = buffer.data() + offset;
      const std::vector<uint32_t> active = checksums(data, len);
      std::vector<uint32_t> table;
      {
        ScopedForceScalar table_path;
        table = checksums(data, len);
      }
      ASSERT_EQ(active, table) << "offset " << offset << " len " << len;
      for (const uint32_t chained : active) {
        ASSERT_EQ(chained, active.front())
            << "offset " << offset << " len " << len;
      }
    }
  }
}

}  // namespace
}  // namespace bingo::util
