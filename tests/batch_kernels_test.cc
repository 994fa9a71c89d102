// Tests for the SoA batch sampling kernels (src/sampling/batch_kernels.h),
// the SampleBatch entry points layered on them, and the latency histogram.
//
// The load-bearing property is the bit-identity contract: every batched
// path must return exactly what the scalar path returns for the same
// inputs, and every SampleBatch must consume each walker's RNG stream
// exactly as the scalar Sample would. The SIMD lanes are additionally
// pinned against the scalar kernels on identical inputs, so AVX2 drift
// cannot hide behind RNG differences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/radix.h"
#include "src/core/radix_base.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/batch_kernels.h"
#include "src/sampling/its.h"
#include "src/util/cpu_features.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace bingo {
namespace {

using sampling::AliasTable;
using sampling::ItsSampler;

// ---------------------------------------------------------------------------
// ItsSearchBatch vs the scalar definition (upper_bound, clamped).

uint32_t ReferenceItsSearch(std::span<const double> cdf, double x) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), x);
  const std::size_t idx = static_cast<std::size_t>(it - cdf.begin());
  return static_cast<uint32_t>(std::min(idx, cdf.size() - 1));
}

TEST(ItsSearchBatchTest, MatchesUpperBoundOnRandomCdfs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t size = 1 + rng.NextBounded(300);
    std::vector<double> cdf(size);
    double acc = 0.0;
    for (auto& c : cdf) {
      // Zero-weight entries produce repeated CDF values (ties).
      if (!rng.NextBool(0.3)) {
        acc += 1.0 + static_cast<double>(rng.NextBounded(100));
      }
      c = acc;
    }
    if (acc == 0.0) {
      cdf.back() = acc = 1.0;
    }
    const std::size_t n = 1 + rng.NextBounded(200);
    std::vector<double> xs(n);
    for (auto& x : xs) {
      x = rng.NextUnit() * acc;
    }
    // Hit the boundaries explicitly: 0, exact CDF values, and the top.
    if (n > 3) {
      xs[0] = 0.0;
      xs[1] = cdf[rng.NextBounded(size)];
      xs[2] = std::nextafter(acc, 0.0);
    }
    std::vector<uint32_t> out(n);
    sampling::ItsSearchBatch(cdf, xs.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], ReferenceItsSearch(cdf, xs[i]))
          << "trial " << trial << " lane " << i << " x=" << xs[i];
    }
  }
}

TEST(ItsSearchBatchTest, SingleElementAndClamp) {
  const std::vector<double> cdf = {2.5};
  const double xs[] = {0.0, 1.0, 2.5, 3.0};
  uint32_t out[4];
  sampling::ItsSearchBatch(cdf, xs, out, 4);
  for (uint32_t o : out) {
    EXPECT_EQ(o, 0u);  // past-the-end draws clamp to the last cell
  }
}

// ---------------------------------------------------------------------------
// AliasResolveBatch vs the scalar acceptance rule.

TEST(AliasResolveBatchTest, MatchesScalarRule) {
  util::Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t size = 1 + rng.NextBounded(64);
    std::vector<double> weights(size);
    for (auto& w : weights) {
      w = rng.NextBool(0.2) ? 0.0 : 1.0 + static_cast<double>(rng.NextBounded(1000));
    }
    if (std::all_of(weights.begin(), weights.end(),
                    [](double w) { return w == 0.0; })) {
      weights[0] = 1.0;
    }
    AliasTable table;
    table.Build(weights);
    const std::size_t n = 1 + rng.NextBounded(150);
    std::vector<uint32_t> slots(n);
    std::vector<double> units(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i] = static_cast<uint32_t>(rng.NextBounded(size));
      units[i] = rng.NextUnit();
    }
    std::vector<uint32_t> out(n);
    sampling::AliasResolveBatch(table.Probs(), table.Aliases(), slots.data(),
                                units.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const uint32_t expected = units[i] < table.Probs()[slots[i]]
                                    ? slots[i]
                                    : table.Aliases()[slots[i]];
      ASSERT_EQ(out[i], expected) << "trial " << trial << " lane " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SplitBiasIntBatch vs core::SplitBias, including the carry edge.

TEST(SplitBiasIntBatchTest, MatchesScalarSplitBiasIncludingCarry) {
  util::Rng rng(33);
  for (double lambda : {1.0, 0.125, 3.7, 1e6}) {
    std::vector<double> biases;
    // frac >= 1 - 2^-33 rounds up and carries into the integer part;
    // frac = 1 - 2^-32 must NOT carry. Both sides of the llround edge.
    biases.push_back((1.0 - 0x1.0p-33) / lambda);
    biases.push_back((1.0 - 0x1.0p-32) / lambda);
    biases.push_back(0.0);
    biases.push_back(1.0);
    biases.push_back(0.5 / lambda);
    for (int i = 0; i < 200; ++i) {
      biases.push_back(rng.NextUnit() * 1e4 / lambda);
    }
    std::vector<uint64_t> out(biases.size());
    sampling::SplitBiasIntBatch(biases.data(), biases.size(), lambda,
                                out.data());
    for (std::size_t i = 0; i < biases.size(); ++i) {
      ASSERT_EQ(out[i], core::SplitBias(biases[i], lambda).int_bits)
          << "lambda=" << lambda << " bias=" << biases[i];
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 lanes vs forced-scalar on identical inputs.

TEST(SimdDispatchTest, Avx2MatchesScalarOnIdenticalInputs) {
  if (util::ActiveSimdLevel() != util::SimdLevel::kAvx2) {
    GTEST_SKIP() << "AVX2 unavailable or disabled; dispatch test is vacuous";
  }
  util::Rng rng(44);
  const std::size_t size = 97;
  std::vector<double> weights(size);
  for (auto& w : weights) {
    w = 1.0 + static_cast<double>(rng.NextBounded(500));
  }
  AliasTable table;
  table.Build(weights);
  ItsSampler its;
  its.Build(weights);

  const std::size_t n = 301;  // deliberately not a multiple of the lane width
  std::vector<uint32_t> slots(n);
  std::vector<double> units(n), xs(n), biases(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = static_cast<uint32_t>(rng.NextBounded(size));
    units[i] = rng.NextUnit();
    xs[i] = rng.NextUnit() * its.TotalWeight();
    biases[i] = rng.NextUnit() * 1e3;
  }
  std::vector<uint32_t> alias_simd(n), alias_scalar(n);
  std::vector<uint32_t> its_simd(n), its_scalar(n);
  std::vector<uint64_t> bits_simd(n), bits_scalar(n);

  sampling::AliasResolveBatch(table.Probs(), table.Aliases(), slots.data(),
                              units.data(), alias_simd.data(), n);
  sampling::ItsSearchBatch(its.Cdf(), xs.data(), its_simd.data(), n);
  sampling::SplitBiasIntBatch(biases.data(), n, 1.0, bits_simd.data());
  {
    util::ScopedForceScalar force_scalar;
    ASSERT_EQ(util::ActiveSimdLevel(), util::SimdLevel::kScalar);
    sampling::AliasResolveBatch(table.Probs(), table.Aliases(), slots.data(),
                                units.data(), alias_scalar.data(), n);
    sampling::ItsSearchBatch(its.Cdf(), xs.data(), its_scalar.data(), n);
    sampling::SplitBiasIntBatch(biases.data(), n, 1.0, bits_scalar.data());
  }
  EXPECT_EQ(alias_simd, alias_scalar);
  EXPECT_EQ(its_simd, its_scalar);
  EXPECT_EQ(bits_simd, bits_scalar);
}

// ---------------------------------------------------------------------------
// SampleBatch bit-identity: batched draws must equal sequential Sample calls
// AND leave every walker's RNG stream in the same state.

std::vector<util::Rng> MakeStreams(std::size_t n, uint64_t seed) {
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rngs.push_back(util::Rng::ForStream(seed, i));
  }
  return rngs;
}

std::vector<util::Rng*> Pointers(std::vector<util::Rng>& rngs) {
  std::vector<util::Rng*> ptrs(rngs.size());
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    ptrs[i] = &rngs[i];
  }
  return ptrs;
}

void ExpectStreamsMatch(std::vector<util::Rng>& a, std::vector<util::Rng>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].Next(), b[i].Next())
        << what << ": walker " << i << " stream position diverged";
  }
}

TEST(SampleBatchTest, AliasTableBitIdentical) {
  util::Rng wrng(55);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{193}}) {
    std::vector<double> weights(40);
    for (auto& w : weights) {
      w = 1.0 + static_cast<double>(wrng.NextBounded(1000));
    }
    AliasTable table;
    table.Build(weights);
    auto batched = MakeStreams(n, 7700 + n);
    auto scalar = batched;  // identical starting states
    std::vector<uint32_t> out_batched(n), out_scalar(n);
    table.SampleBatch(Pointers(batched).data(), n, out_batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      out_scalar[i] = table.Sample(scalar[i]);
    }
    EXPECT_EQ(out_batched, out_scalar) << "n=" << n;
    ExpectStreamsMatch(batched, scalar, "alias");
  }
}

TEST(SampleBatchTest, ItsSamplerBitIdentical) {
  util::Rng wrng(66);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{200}}) {
    std::vector<double> weights(55);
    for (auto& w : weights) {
      w = wrng.NextBool(0.2) ? 0.0
                             : 1.0 + static_cast<double>(wrng.NextBounded(100));
    }
    weights[0] = 1.0;
    ItsSampler its;
    its.Build(weights);
    auto batched = MakeStreams(n, 8800 + n);
    auto scalar = batched;
    std::vector<uint32_t> out_batched(n), out_scalar(n);
    its.SampleBatch(Pointers(batched).data(), n, out_batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      out_scalar[i] = its.Sample(scalar[i]);
    }
    EXPECT_EQ(out_batched, out_scalar) << "n=" << n;
    ExpectStreamsMatch(batched, scalar, "its");
  }
}

// Builds a star graph on vertex 0 and a Bingo sampler over it, the way
// BingoStore drives one vertex.
struct SamplerFixture {
  core::BingoConfig config;
  graph::DynamicGraph graph{4096};
  core::VertexSampler sampler;

  explicit SamplerFixture(const std::vector<double>& biases,
                          double lambda = 1.0) {
    config.lambda = lambda;
    config.pool = &graph.Pool();  // as BingoStore does
    graph::VertexId dst = 1;
    for (double b : biases) {
      graph.Insert(0, dst++, b);
    }
    sampler.SetConfig(&config);
    sampler.Build(graph.Neighbors(0));
  }
  ~SamplerFixture() { sampler.Release(); }
  SamplerFixture(const SamplerFixture&) = delete;
  SamplerFixture& operator=(const SamplerFixture&) = delete;

  std::span<const graph::Edge> Adj() const { return graph.Neighbors(0); }
};

TEST(SampleBatchTest, VertexSamplerBitIdentical) {
  util::Rng wrng(77);
  // Mixes of dense rejection groups, uniform groups, and decimal fractions;
  // plus the degenerate single-neighbor and empty cases.
  std::vector<std::vector<double>> cases;
  cases.push_back({});
  cases.push_back({5.0});
  cases.push_back({1.0, 2.0, 4.0, 8.0});
  {
    std::vector<double> mixed(120);
    for (auto& b : mixed) {
      b = 0.25 + wrng.NextUnit() * static_cast<double>(1 + wrng.NextBounded(64));
    }
    cases.push_back(std::move(mixed));
  }
  for (double lambda : {1.0, 4.0}) {
    for (const auto& biases : cases) {
      SamplerFixture fx(biases, lambda);
      const std::size_t n = 160;
      auto batched = MakeStreams(n, 9900);
      auto scalar = batched;
      std::vector<uint32_t> out_batched(n), out_scalar(n);
      fx.sampler.SampleIndexBatch(fx.Adj(), Pointers(batched).data(), n,
                                  out_batched.data());
      for (std::size_t i = 0; i < n; ++i) {
        out_scalar[i] = fx.sampler.SampleIndex(fx.Adj(), scalar[i]);
      }
      EXPECT_EQ(out_batched, out_scalar)
          << "degree=" << biases.size() << " lambda=" << lambda;
      ExpectStreamsMatch(batched, scalar, "vertex_sampler");
    }
  }
}

TEST(SampleBatchTest, VertexSamplerBitIdenticalUnderForcedScalar) {
  util::Rng wrng(78);
  std::vector<double> biases(90);
  for (auto& b : biases) {
    b = 1.0 + static_cast<double>(wrng.NextBounded(200));
  }
  SamplerFixture fx(biases);
  const std::size_t n = 130;
  auto simd_rngs = MakeStreams(n, 4242);
  auto scalar_rngs = simd_rngs;
  std::vector<uint32_t> out_simd(n), out_scalar(n);
  fx.sampler.SampleIndexBatch(fx.Adj(), Pointers(simd_rngs).data(), n,
                              out_simd.data());
  {
    util::ScopedForceScalar force_scalar;
    fx.sampler.SampleIndexBatch(fx.Adj(), Pointers(scalar_rngs).data(), n,
                                out_scalar.data());
  }
  EXPECT_EQ(out_simd, out_scalar);
  ExpectStreamsMatch(simd_rngs, scalar_rngs, "forced_scalar");
}

TEST(SampleBatchTest, RadixBaseBitIdentical) {
  util::Rng wrng(88);
  for (int log2_base : {1, 2, 4}) {
    graph::DynamicGraph g(4096);
    for (int i = 0; i < 70; ++i) {
      g.Insert(0, static_cast<graph::VertexId>(i + 1),
               1.0 + static_cast<double>(wrng.NextBounded(1 << 10)));
    }
    core::RadixBaseVertexSampler sampler(log2_base);
    sampler.Build(g.Neighbors(0));
    const std::size_t n = 150;
    auto batched = MakeStreams(n, 5500 + static_cast<uint64_t>(log2_base));
    auto scalar = batched;
    std::vector<uint32_t> out_batched(n), out_scalar(n);
    sampler.SampleIndexBatch(Pointers(batched).data(), n, out_batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      out_scalar[i] = sampler.SampleIndex(scalar[i]);
    }
    EXPECT_EQ(out_batched, out_scalar) << "log2_base=" << log2_base;
    ExpectStreamsMatch(batched, scalar, "radix_base");
  }
}

// ---------------------------------------------------------------------------
// Distributional check: the batched path must still sample the implied
// distribution (chi-square goodness of fit on pooled draws).

TEST(SampleBatchTest, BatchedDrawsMatchImpliedDistribution) {
  util::Rng wrng(99);
  std::vector<double> biases(24);
  for (auto& b : biases) {
    b = 0.5 + wrng.NextUnit() * static_cast<double>(1 + wrng.NextBounded(32));
  }
  SamplerFixture fx(biases);
  const auto expected = fx.sampler.ImpliedDistribution(fx.Adj());

  const std::size_t kWalkers = 256;
  const int kRounds = 400;
  auto rngs = MakeStreams(kWalkers, 123456);
  auto ptrs = Pointers(rngs);
  std::vector<uint32_t> out(kWalkers);
  std::vector<uint64_t> observed(biases.size(), 0);
  for (int round = 0; round < kRounds; ++round) {
    fx.sampler.SampleIndexBatch(fx.Adj(), ptrs.data(), kWalkers, out.data());
    for (uint32_t idx : out) {
      ASSERT_LT(idx, biases.size());
      ++observed[idx];
    }
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(observed, expected));
}

TEST(SampleBatchTest, AliasBatchedDrawsMatchImpliedDistribution) {
  std::vector<double> weights = {1.0, 5.0, 0.5, 10.0, 2.0, 2.0, 7.5, 0.25};
  AliasTable table;
  table.Build(weights);
  const auto expected = table.ImpliedProbabilities();

  const std::size_t kWalkers = 128;
  auto rngs = MakeStreams(kWalkers, 654321);
  auto ptrs = Pointers(rngs);
  std::vector<uint32_t> out(kWalkers);
  std::vector<uint64_t> observed(weights.size(), 0);
  for (int round = 0; round < 800; ++round) {
    table.SampleBatch(ptrs.data(), kWalkers, out.data());
    for (uint32_t idx : out) {
      ++observed[idx];
    }
  }
  EXPECT_TRUE(util::ChiSquareTestPasses(observed, expected));
}

// ---------------------------------------------------------------------------
// LatencyHistogram: exact count/min/max/mean, bounded-relative-error
// quantiles, and merge.

TEST(LatencyHistogramTest, ExactMomentsAndBoundedQuantiles) {
  util::Rng rng(101);
  util::LatencyHistogram hist;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies from ~100ns to ~1s, the serving range.
    const double ns = std::exp(rng.NextUnit() * std::log(1e9 / 100.0)) * 100.0;
    hist.RecordNanos(static_cast<uint64_t>(ns));
    samples.push_back(static_cast<double>(static_cast<uint64_t>(ns)) * 1e-9);
  }
  EXPECT_EQ(hist.Count(), samples.size());
  const auto [min_it, max_it] = std::minmax_element(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(hist.MinSeconds(), *min_it);
  EXPECT_DOUBLE_EQ(hist.MaxSeconds(), *max_it);
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  EXPECT_NEAR(hist.MeanSeconds(), sum / static_cast<double>(samples.size()),
              1e-12);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = util::SampleQuantile(samples, q);
    const double approx = hist.QuantileSeconds(q);
    // 32 sub-buckets per octave -> <= ~3.2% relative error, plus a little
    // slack for the rank interpolation difference.
    EXPECT_NEAR(approx, exact, exact * 0.05) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeEqualsUnionRecording) {
  util::Rng rng(202);
  util::LatencyHistogram a, b, both;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t ns = 50 + rng.NextBounded(1'000'000'000ULL);
    (i % 2 == 0 ? a : b).RecordNanos(ns);
    both.RecordNanos(ns);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), both.Count());
  EXPECT_DOUBLE_EQ(a.MinSeconds(), both.MinSeconds());
  EXPECT_DOUBLE_EQ(a.MaxSeconds(), both.MaxSeconds());
  EXPECT_DOUBLE_EQ(a.MeanSeconds(), both.MeanSeconds());
  for (double q : {0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.QuantileSeconds(q), both.QuantileSeconds(q)) << q;
  }
}

TEST(LatencyHistogramTest, EmptyIsWellDefined) {
  util::LatencyHistogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.QuantileSeconds(0.99), 0.0);
  EXPECT_EQ(hist.MeanSeconds(), 0.0);
}

}  // namespace
}  // namespace bingo
