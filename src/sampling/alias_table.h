// Alias method (Vose construction) — §2.3(b) of the paper.
//
// O(d) construction, O(1) sampling. This is both the classical baseline
// (KnightKing's static sampler, which rebuilds a vertex's table on every
// update) and the building block of Bingo's *inter-group* sampling space,
// where d is replaced by the number of radix groups K.

#ifndef BINGO_SRC_SAMPLING_ALIAS_TABLE_H_
#define BINGO_SRC_SAMPLING_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"

namespace bingo::sampling {

class AliasTable {
 public:
  AliasTable() = default;

  // Builds the table for (possibly zero) nonnegative weights. O(n).
  void Build(std::span<const double> weights);

  // Draws an index with probability weight[i] / sum(weights). The table must
  // have at least one positive weight.
  uint32_t Sample(util::Rng& rng) const;

  // Batched draws: out[i] is exactly what Sample(*rngs[i]) would return,
  // with each walker's two variates (bucket, acceptance) drawn from its own
  // stream in Sample's order — then whole lanes are resolved through the
  // SIMD batch kernel. Bit-identical to per-walker Sample calls for any n.
  void SampleBatch(util::Rng* const* rngs, std::size_t n, uint32_t* out) const;

  // Raw table views for the batch kernels (src/sampling/batch_kernels.h).
  std::span<const double> Probs() const { return prob_; }
  std::span<const uint32_t> Aliases() const { return alias_; }

  std::size_t Size() const { return prob_.size(); }
  bool Empty() const { return prob_.empty(); }
  double TotalWeight() const { return total_weight_; }

  // Exactly reconstructs the probability each index receives from the built
  // table (sum of its own bucket share plus alias shares). Used by tests to
  // verify correctness without sampling noise.
  std::vector<double> ImpliedProbabilities() const;

  std::size_t MemoryBytes() const {
    return prob_.capacity() * sizeof(double) + alias_.capacity() * sizeof(uint32_t);
  }

  // The same operations over caller-owned arrays of equal size (the vertex
  // sampler keeps its inter-group table inside its per-vertex block). The
  // member functions above run through these, so both forms build
  // identical tables and consume identical variates.

  // Fills prob/alias for `weights` (same size); returns the total weight.
  static double BuildInto(std::span<const double> weights,
                          std::span<double> prob, std::span<uint32_t> alias);

  static uint32_t SampleFrom(std::span<const double> prob,
                             std::span<const uint32_t> alias, util::Rng& rng) {
    const uint32_t bucket = static_cast<uint32_t>(rng.NextBounded(prob.size()));
    return rng.NextUnit() < prob[bucket] ? bucket : alias[bucket];
  }

  static void SampleBatchFrom(std::span<const double> prob,
                              std::span<const uint32_t> alias,
                              util::Rng* const* rngs, std::size_t n,
                              uint32_t* out);

  static std::vector<double> ImpliedProbabilitiesOf(
      std::span<const double> prob, std::span<const uint32_t> alias);

 private:
  std::vector<double> prob_;     // acceptance threshold per bucket, in [0,1]
  std::vector<uint32_t> alias_;  // alias target per bucket
  double total_weight_ = 0.0;
};

}  // namespace bingo::sampling

#endif  // BINGO_SRC_SAMPLING_ALIAS_TABLE_H_
