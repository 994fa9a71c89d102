// Statistical helpers for validating samplers.
//
// Tests validate Bingo's transition probabilities in two ways:
//   1. Exactly, by reconstructing the implied distribution from the data
//     structure (no randomness involved); helpers here compare distributions.
//   2. Statistically, by drawing samples and running a chi-square
//     goodness-of-fit test against the expected distribution.

#ifndef BINGO_SRC_UTIL_STATS_H_
#define BINGO_SRC_UTIL_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace bingo::util {

// Pearson's chi-square statistic for observed counts vs expected
// probabilities. Cells with expected count below `min_expected` are pooled
// into their neighbor to keep the chi-square approximation valid.
double ChiSquareStatistic(std::span<const uint64_t> observed,
                          std::span<const double> expected_probs,
                          double min_expected = 5.0);

// Approximate upper critical value of the chi-square distribution with `df`
// degrees of freedom at the given right-tail probability, via the
// Wilson-Hilferty cube approximation (accurate to ~1% for df >= 3).
double ChiSquareCritical(int df, double alpha);

// Convenience: true if observed counts are consistent with expected_probs at
// significance `alpha` (i.e. the test does NOT reject).
bool ChiSquareTestPasses(std::span<const uint64_t> observed,
                         std::span<const double> expected_probs,
                         double alpha = 1e-3);

// Total variation distance between two probability vectors (0 = identical).
double TotalVariationDistance(std::span<const double> p, std::span<const double> q);

// Largest |p_i - q_i| / max(q_i, eps) over all cells.
double MaxRelativeError(std::span<const double> p, std::span<const double> q,
                        double eps = 1e-12);

// Normalizes nonnegative weights into a probability vector. Zero total
// yields an all-zero vector.
std::vector<double> Normalize(std::span<const double> weights);

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_STATS_H_
