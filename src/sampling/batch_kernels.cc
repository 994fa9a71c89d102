#include "src/sampling/batch_kernels.h"

#include <algorithm>

#include "src/core/radix.h"
#include "src/util/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bingo::sampling {
namespace detail {

void AliasResolveBatchScalar(std::span<const double> prob,
                             std::span<const uint32_t> alias,
                             const uint32_t* slots, const double* units,
                             uint32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t slot = slots[i];
    out[i] = units[i] < prob[slot] ? slot : alias[slot];
  }
}

void ItsSearchBatchScalar(std::span<const double> cdf, const double* xs,
                          uint32_t* out, std::size_t n) {
  const std::size_t size = cdf.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), xs[i]);
    out[i] = static_cast<uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                              size - 1));
  }
}

void SplitBiasIntBatchScalar(const double* biases, std::size_t n,
                             double lambda, uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = core::SplitBias(biases[i], lambda).int_bits;
  }
}

#if defined(__x86_64__)

// The gathers below use the masked forms with a zeroed source and an
// all-ones mask: every lane loads, exactly as the unmasked forms, but the
// source operand is defined (the unmasked intrinsics pass an uninitialized
// one, which GCC reports as -Wmaybe-uninitialized).
__attribute__((target("avx2"))) inline __m256d AllLanesPd() {
  return _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
}

__attribute__((target("avx2"))) void AliasResolveBatchAvx2(
    std::span<const double> prob, std::span<const uint32_t> alias,
    const uint32_t* slots, const double* units, uint32_t* out, std::size_t n) {
  const double* prob_base = prob.data();
  const int* alias_base = reinterpret_cast<const int*>(alias.data());
  // Lane compaction: take dword 0 of each 64-bit compare mask.
  const __m256i take_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i slots4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + i));
    const __m256d prob4 = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), prob_base, slots4, AllLanesPd(), 8);
    const __m256d units4 = _mm256_loadu_pd(units + i);
    // units < prob: identical semantics to the scalar `<` (no NaNs here:
    // prob entries are in [0, 1] and units in [0, 1)).
    const __m256d accept = _mm256_cmp_pd(units4, prob4, _CMP_LT_OQ);
    const __m128i alias4 = _mm_mask_i32gather_epi32(
        _mm_setzero_si128(), alias_base, slots4, _mm_set1_epi32(-1), 4);
    const __m128i accept32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(accept), take_even));
    const __m128i result = _mm_blendv_epi8(alias4, slots4, accept32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), result);
  }
  if (i < n) {
    AliasResolveBatchScalar(prob, alias, slots + i, units + i, out + i, n - i);
  }
}

__attribute__((target("avx2"))) void ItsSearchBatchAvx2(
    std::span<const double> cdf, const double* xs, uint32_t* out,
    std::size_t n) {
  const double* cdf_base = cdf.data();
  const std::size_t size = cdf.size();
  const __m256i take_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i size_v = _mm256_set1_epi64x(static_cast<long long>(size));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x4 = _mm256_loadu_pd(xs + i);
    // Uniform-length branchless binary search: every lane takes the same
    // probe schedule (a pure function of `size`), so the lanes stay in
    // lockstep. Invariant: the upper_bound index lies in [base, base+len],
    // and probes stay within [0, size).
    __m256i base = _mm256_setzero_si256();
    std::size_t len = size;
    while (len > 1) {
      const std::size_t half = len >> 1;
      const __m256i probe = _mm256_add_epi64(
          base, _mm256_set1_epi64x(static_cast<long long>(half - 1)));
      const __m256d values = _mm256_mask_i64gather_pd(
          _mm256_setzero_pd(), cdf_base, probe, AllLanesPd(), 8);
      // cdf[probe] <= x  =>  the first index with cdf > x is right of the
      // probe: advance base by half. Matches std::upper_bound's ordering
      // (result = count of elements <= x) exactly.
      const __m256d le = _mm256_cmp_pd(values, x4, _CMP_LE_OQ);
      base = _mm256_add_epi64(
          base, _mm256_and_si256(_mm256_castpd_si256(le),
                                 _mm256_set1_epi64x(static_cast<long long>(half))));
      len -= half;
    }
    const __m256d last = _mm256_mask_i64gather_pd(_mm256_setzero_pd(),
                                                  cdf_base, base, AllLanesPd(), 8);
    const __m256d le = _mm256_cmp_pd(last, x4, _CMP_LE_OQ);
    base = _mm256_sub_epi64(base, _mm256_castpd_si256(le));  // mask is -1
    // Clamp base == size to size-1 (x at/above the CDF total).
    const __m256i at_end = _mm256_cmpeq_epi64(base, size_v);
    base = _mm256_sub_epi64(base, _mm256_and_si256(at_end, one));
    const __m128i out4 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(base, take_even));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), out4);
  }
  if (i < n) {
    ItsSearchBatchScalar(cdf, xs + i, out + i, n - i);
  }
}

__attribute__((target("avx2"))) void SplitBiasIntBatchAvx2(
    const double* biases, std::size_t n, double lambda, uint64_t* out) {
  const __m256d lambda4 = _mm256_set1_pd(lambda);
  // Integer extraction for ip in [0, 2^52): (ip + 2^52) has ip in its
  // mantissa bits; reinterpreting and subtracting 2^52's bit pattern yields
  // the exact integer.
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  // llround(frac * 2^32) >= 2^32  <=>  frac >= 1 - 2^-33 (frac * 2^32 is an
  // exact power-of-two scaling, and llround ties away from zero) — the
  // scalar SplitBias carry, as an exact compare.
  const __m256d carry_threshold = _mm256_set1_pd(1.0 - 0x1.0p-33);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d w4 = _mm256_loadu_pd(biases + i);
    const __m256d scaled = _mm256_mul_pd(w4, lambda4);
    const __m256d ip =
        _mm256_round_pd(scaled, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_sub_pd(scaled, ip);  // exact (Sterbenz)
    __m256i bits = _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(ip, magic)), magic_bits);
    const __m256d carry = _mm256_cmp_pd(frac, carry_threshold, _CMP_GE_OQ);
    bits = _mm256_sub_epi64(bits, _mm256_castpd_si256(carry));  // -(-1) = +1
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bits);
  }
  if (i < n) {
    SplitBiasIntBatchScalar(biases + i, n - i, lambda, out + i);
  }
}

#endif  // defined(__x86_64__)

}  // namespace detail

void AliasResolveBatch(std::span<const double> prob,
                       std::span<const uint32_t> alias, const uint32_t* slots,
                       const double* units, uint32_t* out, std::size_t n) {
#if defined(__x86_64__)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    detail::AliasResolveBatchAvx2(prob, alias, slots, units, out, n);
    return;
  }
#endif
  detail::AliasResolveBatchScalar(prob, alias, slots, units, out, n);
}

void ItsSearchBatch(std::span<const double> cdf, const double* xs,
                    uint32_t* out, std::size_t n) {
#if defined(__x86_64__)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    detail::ItsSearchBatchAvx2(cdf, xs, out, n);
    return;
  }
#endif
  detail::ItsSearchBatchScalar(cdf, xs, out, n);
}

void SplitBiasIntBatch(const double* biases, std::size_t n, double lambda,
                       uint64_t* out) {
#if defined(__x86_64__)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    detail::SplitBiasIntBatchAvx2(biases, n, lambda, out);
    return;
  }
#endif
  detail::SplitBiasIntBatchScalar(biases, n, lambda, out);
}

}  // namespace bingo::sampling
