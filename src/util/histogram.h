// Fixed-capacity log-linear latency histogram (HDR-histogram layout).
//
// A latency recorder takes one sample per operation (a query in
// bench_index, a corpus repair in WalkIndexService); at thousands per
// second over minutes that is millions of samples, and storing every one
// grows memory linearly with run length. This histogram stores a constant ~12 KiB regardless of sample count: values
// (nanoseconds) are bucketed into 32 linear sub-buckets per power-of-two
// octave, giving a guaranteed relative error under 1/32 (~3.2%) across the
// full range [0, ~2^49 ns ≈ 6.5 days]. Values below 32 ns are exact.
//
// Quantiles follow the rank convention of util::SampleQuantile (rank
// q*(count-1) over the sorted samples), returning the representative
// midpoint of the bucket holding that rank — so histogram p50/p99 agree
// with the sample-vector definition up to bucket resolution.
//
// Not thread-safe: each recording thread owns a histogram and the reporter
// Merge()s them (the same pattern as the engine's per-chunk accumulators).

#ifndef BINGO_SRC_UTIL_HISTOGRAM_H_
#define BINGO_SRC_UTIL_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace bingo::util {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  static constexpr int kOctaves = 44;  // highest distinguishable ~2^49 ns
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kSubBuckets) * (kOctaves + 1);

  void RecordNanos(uint64_t ns) {
    ++counts_[BucketIndex(ns)];
    ++count_;
    sum_ns_ += ns;
    if (ns < min_ns_) {
      min_ns_ = ns;
    }
    if (ns > max_ns_) {
      max_ns_ = ns;
    }
  }

  void RecordSeconds(double seconds) {
    if (std::isnan(seconds)) {
      return;  // NaN carries no rank information; dropping beats poisoning
    }
    if (seconds < 0.0) {
      seconds = 0.0;
    }
    // Saturate before the cast: double -> uint64_t is UB once the value
    // exceeds what uint64_t can hold (DBL_MAX seconds is ~1.8e317 ns).
    const double ns = seconds * 1e9;
    constexpr double kMaxRepresentable = 18446744073709549568.0;  // < 2^64
    RecordNanos(ns >= kMaxRepresentable
                    ? std::numeric_limits<uint64_t>::max()
                    : static_cast<uint64_t>(ns));
  }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    if (other.min_ns_ < min_ns_) {
      min_ns_ = other.min_ns_;
    }
    if (other.max_ns_ > max_ns_) {
      max_ns_ = other.max_ns_;
    }
  }

  uint64_t Count() const { return count_; }
  double MinSeconds() const { return count_ == 0 ? 0.0 : 1e-9 * static_cast<double>(min_ns_); }
  double MaxSeconds() const { return count_ == 0 ? 0.0 : 1e-9 * static_cast<double>(max_ns_); }
  double MeanSeconds() const {
    return count_ == 0 ? 0.0
                       : 1e-9 * static_cast<double>(sum_ns_) /
                             static_cast<double>(count_);
  }

  // Value at rank q*(count-1), q in [0, 1]. 0 when empty.
  double QuantileSeconds(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    if (q < 0.0) {
      q = 0.0;
    }
    if (q > 1.0) {
      q = 1.0;
    }
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      cumulative += counts_[i];
      if (cumulative > rank) {
        // Clamp the representative midpoint into the observed range: the
        // extreme buckets hold min/max samples whose midpoint can lie
        // outside [min_ns_, max_ns_] (p99 must never exceed MaxSeconds).
        const uint64_t mid =
            std::clamp(BucketMidNanos(i), min_ns_, max_ns_);
        return 1e-9 * static_cast<double>(mid);
      }
    }
    return 1e-9 * static_cast<double>(max_ns_);
  }

  static constexpr std::size_t MemoryBytes() { return sizeof(LatencyHistogram); }

 private:
  static std::size_t BucketIndex(uint64_t ns) {
    if (ns < kSubBuckets) {
      return static_cast<std::size_t>(ns);
    }
    const int msb = 63 - std::countl_zero(ns);
    const int octave = msb - kSubBucketBits;  // >= 0
    const uint64_t sub = (ns >> octave) - kSubBuckets;  // in [0, kSubBuckets)
    const std::size_t idx =
        kSubBuckets + static_cast<std::size_t>(octave) * kSubBuckets +
        static_cast<std::size_t>(sub);
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
  }

  // Midpoint of the bucket's value range (exact for the linear region).
  static uint64_t BucketMidNanos(std::size_t idx) {
    if (idx < kSubBuckets) {
      return idx;
    }
    const std::size_t octave = (idx - kSubBuckets) / kSubBuckets;
    const uint64_t sub = (idx - kSubBuckets) % kSubBuckets;
    const uint64_t lower = (kSubBuckets + sub) << octave;
    const uint64_t width = uint64_t{1} << octave;
    return lower + width / 2;
  }

  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t min_ns_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ns_ = 0;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_HISTOGRAM_H_
