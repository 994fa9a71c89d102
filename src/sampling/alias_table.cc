#include "src/sampling/alias_table.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/sampling/batch_kernels.h"

namespace bingo::sampling {

void AliasTable::Build(std::span<const double> weights) {
  prob_.resize(weights.size());
  alias_.resize(weights.size());
  total_weight_ = BuildInto(weights, prob_, alias_);
}

double AliasTable::BuildInto(std::span<const double> weights,
                             std::span<double> prob,
                             std::span<uint32_t> alias) {
  const std::size_t n = weights.size();
  assert(prob.size() == n && alias.size() == n);
  std::fill(prob.begin(), prob.end(), 0.0);
  std::fill(alias.begin(), alias.end(), 0u);
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  if (n == 0 || total_weight <= 0.0) {
    return 0.0;
  }

  // Vose's algorithm: scale weights so the average bucket volume is 1, then
  // pair each under-full bucket with an over-full donor. Scratch buffers are
  // thread-local: Build runs on every streaming update (the inter-group
  // rebuild of §4.2), so per-call allocations would dominate small tables.
  static thread_local std::vector<double> scaled;
  static thread_local std::vector<uint32_t> small;
  static thread_local std::vector<uint32_t> large;
  scaled.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total_weight;
  }
  small.clear();
  large.clear();
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are numerically-full buckets.
  for (uint32_t l : large) {
    prob[l] = 1.0;
    alias[l] = l;
  }
  for (uint32_t s : small) {
    prob[s] = 1.0;
    alias[s] = s;
  }
  return total_weight;
}

uint32_t AliasTable::Sample(util::Rng& rng) const {
  assert(!prob_.empty() && total_weight_ > 0.0);
  return SampleFrom(prob_, alias_, rng);
}

void AliasTable::SampleBatch(util::Rng* const* rngs, std::size_t n,
                             uint32_t* out) const {
  assert(!prob_.empty() && total_weight_ > 0.0);
  SampleBatchFrom(prob_, alias_, rngs, n, out);
}

void AliasTable::SampleBatchFrom(std::span<const double> prob,
                                 std::span<const uint32_t> alias,
                                 util::Rng* const* rngs, std::size_t n,
                                 uint32_t* out) {
  constexpr std::size_t kTile = 64;
  uint32_t slots[kTile];
  double units[kTile];
  for (std::size_t begin = 0; begin < n; begin += kTile) {
    const std::size_t count = std::min(kTile, n - begin);
    // Per-walker variates first, in Sample's draw order (bucket then
    // acceptance) from each walker's own stream; the kernel then resolves
    // all lanes without touching any RNG.
    for (std::size_t i = 0; i < count; ++i) {
      util::Rng& rng = *rngs[begin + i];
      slots[i] = static_cast<uint32_t>(rng.NextBounded(prob.size()));
      units[i] = rng.NextUnit();
    }
    AliasResolveBatch(prob, alias, slots, units, out + begin, count);
  }
}

std::vector<double> AliasTable::ImpliedProbabilities() const {
  if (total_weight_ <= 0.0) {
    return std::vector<double>(prob_.size(), 0.0);
  }
  return ImpliedProbabilitiesOf(prob_, alias_);
}

std::vector<double> AliasTable::ImpliedProbabilitiesOf(
    std::span<const double> prob, std::span<const uint32_t> alias) {
  std::vector<double> probs(prob.size(), 0.0);
  if (prob.empty()) {
    return probs;
  }
  const double bucket_mass = 1.0 / static_cast<double>(prob.size());
  for (std::size_t i = 0; i < prob.size(); ++i) {
    probs[i] += bucket_mass * prob[i];
    probs[alias[i]] += bucket_mass * (1.0 - prob[i]);
  }
  return probs;
}

}  // namespace bingo::sampling
