#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace bingo::util {

double ChiSquareStatistic(std::span<const uint64_t> observed,
                          std::span<const double> expected_probs,
                          double min_expected) {
  const uint64_t total =
      std::accumulate(observed.begin(), observed.end(), uint64_t{0});
  if (total == 0) {
    return 0.0;
  }
  // Pool small-expectation cells together so every contributing cell has an
  // expected count of at least `min_expected`.
  double stat = 0.0;
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_probs[i] * static_cast<double>(total);
    pooled_obs += static_cast<double>(observed[i]);
    pooled_exp += expected;
    if (pooled_exp >= min_expected) {
      const double diff = pooled_obs - pooled_exp;
      stat += diff * diff / pooled_exp;
      pooled_obs = 0.0;
      pooled_exp = 0.0;
    }
  }
  if (pooled_exp > 0.0) {
    const double diff = pooled_obs - pooled_exp;
    stat += diff * diff / pooled_exp;
  }
  return stat;
}

double ChiSquareCritical(int df, double alpha) {
  if (df <= 0) {
    return 0.0;
  }
  // Wilson-Hilferty: X^2_{df,alpha} ~ df * (1 - 2/(9 df) + z * sqrt(2/(9 df)))^3.
  // Inverse-normal via Acklam-style rational approximation on the tail.
  const double p = 1.0 - alpha;
  // Beasley-Springer-Moro inverse normal approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double z;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double n = static_cast<double>(df);
  const double term = 1.0 - 2.0 / (9.0 * n) + z * std::sqrt(2.0 / (9.0 * n));
  return n * term * term * term;
}

bool ChiSquareTestPasses(std::span<const uint64_t> observed,
                         std::span<const double> expected_probs, double alpha) {
  // Degrees of freedom: cells with nonzero expectation, minus one. Pooling
  // in the statistic only reduces df, so this is conservative in the
  // direction of more-willing-to-reject; tests use loose alpha anyway.
  int cells = 0;
  for (double p : expected_probs) {
    if (p > 0.0) {
      ++cells;
    }
  }
  if (cells <= 1) {
    return true;
  }
  const double stat = ChiSquareStatistic(observed, expected_probs);
  return stat <= ChiSquareCritical(cells - 1, alpha);
}

double TotalVariationDistance(std::span<const double> p, std::span<const double> q) {
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    sum += std::abs(p[i] - q[i]);
  }
  return 0.5 * sum;
}

double MaxRelativeError(std::span<const double> p, std::span<const double> q,
                        double eps) {
  double worst = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    worst = std::max(worst, std::abs(p[i] - q[i]) / std::max(q[i], eps));
  }
  return worst;
}

std::vector<double> Normalize(std::span<const double> weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<double> out(weights.size(), 0.0);
  if (total <= 0.0) {
    return out;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = weights[i] / total;
  }
  return out;
}

}  // namespace bingo::util
