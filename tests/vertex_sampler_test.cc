// Tests for the per-vertex Bingo sampler (§4, §5.1).
//
// The central correctness property (Theorem 4.1): at any point in any
// update sequence, the distribution the structure implies — reconstructed
// exactly from the inter-group alias table and the group member lists, with
// no sampling noise — must equal bias_i / sum(bias).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/radix.h"
#include "src/core/vertex_sampler.h"
#include "src/graph/dynamic_graph.h"
#include "src/sampling/exact.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace bingo::core {
namespace {

// Drives one vertex's sampler exactly the way BingoStore does, against a
// real DynamicGraph holding the adjacency.
class Harness {
 public:
  Harness(BingoConfig config, const std::vector<double>& biases)
      : config_(config), graph_(100000) {
    config_.conversion_stats = &stats_;
    config_.pool = &graph_.Pool();  // as BingoStore does
    for (double b : biases) {
      graph_.Insert(0, next_dst_++, b);
    }
    sampler_.SetConfig(&config_);
    sampler_.Build(Adj());
  }
  ~Harness() { sampler_.Release(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  std::span<const graph::Edge> Adj() const { return graph_.Neighbors(0); }
  VertexSampler& Sampler() { return sampler_; }
  const ConversionStats& Stats() const { return stats_; }
  uint32_t Degree() const { return graph_.Degree(0); }

  void Insert(double bias) {
    const uint32_t idx = graph_.Insert(0, next_dst_++, bias);
    sampler_.InsertEdge(Adj(), idx);
    sampler_.FinishUpdate(Adj());
  }

  void DeleteIndex(uint32_t idx) {
    sampler_.RemoveEdge(Adj(), idx);
    const auto result = graph_.SwapRemove(0, idx);
    if (result.moved) {
      sampler_.RenameIndex(result.moved_edge.bias, result.moved_from,
                           result.moved_to);
    }
    sampler_.FinishUpdate(Adj());
  }

  // Batched removal, driven the way BingoStore::ApplyVertexBatch does it.
  void BatchDelete(std::vector<uint32_t> idxs) {
    std::sort(idxs.begin(), idxs.end());
    sampler_.RemoveEdgesBatch(Adj(), idxs);
    const auto moves = graph_.BatchSwapRemove(0, idxs);
    for (const auto& move : moves) {
      sampler_.RenameIndex(move.edge.bias, move.from, move.to);
    }
    sampler_.FinishUpdate(Adj());
  }

  double BiasAt(uint32_t idx) const { return Adj()[idx].bias; }

  // Ground truth from the adjacency through the same fixed-point
  // quantization the sampler uses.
  std::vector<double> Expected() const {
    std::vector<double> weights;
    for (const graph::Edge& e : Adj()) {
      weights.push_back(
          static_cast<double>(SplitBias(e.bias, config_.lambda).FixedWeight()));
    }
    return util::Normalize(weights);
  }

  // Asserts the exact implied distribution and the structural audit.
  void ExpectConsistent(const std::string& context) const {
    const std::string err = sampler_.CheckInvariants(Adj());
    ASSERT_TRUE(err.empty()) << context << ": " << err;
    const auto implied = sampler_.ImpliedDistribution(Adj());
    const auto expected = Expected();
    ASSERT_EQ(implied.size(), expected.size());
    for (std::size_t i = 0; i < implied.size(); ++i) {
      ASSERT_NEAR(implied[i], expected[i], 1e-9)
          << context << " at neighbor index " << i;
    }
  }

 private:
  BingoConfig config_;
  ConversionStats stats_;
  graph::DynamicGraph graph_;
  VertexSampler sampler_;
  graph::VertexId next_dst_ = 1;
};

BingoConfig GaConfig() { return BingoConfig{}; }
BingoConfig BsConfig() {
  BingoConfig config;
  config.adaptive.adaptive = false;
  return config;
}

// --------------------------------------------------- paper running example --

TEST(VertexSamplerTest, PaperRunningExampleGroups) {
  // Vertex 2 of Fig 4: edges (2,1,5), (2,4,4), (2,5,3) -> neighbor indices
  // 0, 1, 2. Groups: 2^0 = {0, 2}, 2^1 = {2}, 2^2 = {0, 1} with weights
  // 2, 2, 8 — all in BS mode so every group is regular and enumerable.
  Harness h(BsConfig(), {5.0, 4.0, 3.0});
  const VertexSampler& s = h.Sampler();
  ASSERT_NE(s.GroupAt(0), nullptr);
  EXPECT_EQ(s.GroupAt(0)->Count(), 2u);
  EXPECT_TRUE(s.GroupAt(0)->Contains(0));
  EXPECT_TRUE(s.GroupAt(0)->Contains(2));
  EXPECT_EQ(s.GroupAt(1)->Count(), 1u);
  EXPECT_TRUE(s.GroupAt(1)->Contains(2));
  EXPECT_EQ(s.GroupAt(2)->Count(), 2u);
  EXPECT_TRUE(s.GroupAt(2)->Contains(0));
  EXPECT_TRUE(s.GroupAt(2)->Contains(1));
  EXPECT_EQ(GroupWeight(0, 2) + GroupWeight(1, 1) + GroupWeight(2, 2), 12.0);
  h.ExpectConsistent("paper example");
}

TEST(VertexSamplerTest, PaperInsertionExample) {
  // Fig 5: inserting (2,3,3) splits into groups 2^0 and 2^1.
  Harness h(BsConfig(), {5.0, 4.0, 3.0});
  h.Insert(3.0);  // new neighbor index 3
  const VertexSampler& s = h.Sampler();
  EXPECT_EQ(s.GroupAt(0)->Count(), 3u);
  EXPECT_TRUE(s.GroupAt(0)->Contains(3));
  EXPECT_EQ(s.GroupAt(1)->Count(), 2u);
  EXPECT_TRUE(s.GroupAt(1)->Contains(3));
  EXPECT_EQ(s.GroupAt(2)->Count(), 2u);
  h.ExpectConsistent("after insertion");
}

TEST(VertexSamplerTest, PaperDeletionExample) {
  // Fig 6: deleting (2,1,5) (neighbor index 0) removes it from groups 2^0
  // and 2^2; the tail neighbor is swapped into index 0.
  Harness h(BsConfig(), {5.0, 4.0, 3.0, 3.0});
  h.DeleteIndex(0);
  EXPECT_EQ(h.Degree(), 3u);
  h.ExpectConsistent("after deletion");
}

// ----------------------------------------------------- exact distributions --

class DistributionParamTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

std::vector<double> BiasPattern(int pattern, std::size_t n, util::Rng& rng) {
  std::vector<double> biases(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case 0:  // uniform integers
        biases[i] = 1 + rng.NextBounded(255);
        break;
      case 1:  // all odd (group 2^0 is 100% dense)
        biases[i] = 1 + 2 * rng.NextBounded(128);
        break;
      case 2:  // powers of two (every group one-element-ish)
        biases[i] = std::ldexp(1.0, static_cast<int>(rng.NextBounded(16)));
        break;
      case 3:  // heavy skew
        biases[i] = i == 0 ? (1 << 20) : 1 + rng.NextBounded(3);
        break;
      case 4:  // floating point
        biases[i] = 1 + rng.NextBounded(100) + rng.NextUnit();
        break;
      case 5:  // sub-integer floats (everything decimal after lambda=1)
        biases[i] = 0.01 + rng.NextUnit();
        break;
      default:
        biases[i] = 1;
    }
  }
  return biases;
}

TEST_P(DistributionParamTest, BuildImpliesExactDistribution) {
  const auto [adaptive, pattern] = GetParam();
  util::Rng rng(1000 + pattern);
  for (const std::size_t n : {1u, 2u, 5u, 37u, 200u}) {
    BingoConfig config = adaptive ? GaConfig() : BsConfig();
    if (pattern == 5) {
      config.lambda = 64.0;  // the paper's amortization for tiny floats
    }
    Harness h(config, BiasPattern(pattern, n, rng));
    h.ExpectConsistent("build n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributionParamTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(0, 6)));

// ------------------------------------------------------- streaming churn --

class ChurnParamTest
    : public ::testing::TestWithParam<std::tuple<bool, int, int>> {};

TEST_P(ChurnParamTest, RandomInsertDeleteSequencesStayExact) {
  const auto [adaptive, pattern, seed] = GetParam();
  util::Rng rng(seed * 7919 + pattern);
  BingoConfig config = adaptive ? GaConfig() : BsConfig();
  if (pattern == 5) {
    config.lambda = 64.0;
  }
  Harness h(config, BiasPattern(pattern, 20, rng));
  for (int op = 0; op < 300; ++op) {
    const bool do_insert = h.Degree() == 0 || rng.NextBool(0.5);
    if (do_insert) {
      h.Insert(BiasPattern(pattern, 1, rng)[0]);
    } else {
      h.DeleteIndex(static_cast<uint32_t>(rng.NextBounded(h.Degree())));
    }
    if (op % 10 == 0 || op > 290) {
      h.ExpectConsistent("op " + std::to_string(op));
    }
  }
  h.ExpectConsistent("final");
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChurnParamTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(0, 1, 3, 4, 5),
                                            ::testing::Range(0, 4)));

TEST(VertexSamplerTest, DeleteEverythingThenReinsert) {
  Harness h(GaConfig(), {5.0, 4.0, 3.0});
  h.DeleteIndex(0);
  h.DeleteIndex(0);
  h.DeleteIndex(0);
  EXPECT_EQ(h.Degree(), 0u);
  util::Rng rng(1);
  EXPECT_EQ(h.Sampler().SampleIndex(h.Adj(), rng), VertexSampler::kNoNeighbor);
  h.Insert(7.0);
  h.Insert(2.5);
  h.ExpectConsistent("reinserted");
}

// --------------------------------------------------------- real sampling --

class SamplingParamTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SamplingParamTest, EmpiricalSamplesPassChiSquare) {
  const auto [adaptive, pattern] = GetParam();
  util::Rng rng(500 + pattern);
  BingoConfig config = adaptive ? GaConfig() : BsConfig();
  if (pattern == 5) {
    config.lambda = 64.0;
  }
  Harness h(config, BiasPattern(pattern, 40, rng));
  util::Rng sample_rng(9999);
  const auto counts = sampling::Histogram(h.Degree(), 300000, [&] {
    return h.Sampler().SampleIndex(h.Adj(), sample_rng);
  });
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, h.Expected()))
      << "adaptive=" << adaptive << " pattern=" << pattern;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SamplingParamTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(0, 6)));

// ------------------------------------------------------ group adaptation --

TEST(VertexSamplerTest, AllOddBiasesMakeGroupZeroDense) {
  util::Rng rng(3);
  std::vector<double> biases(50);
  for (auto& b : biases) {
    b = 1 + 2 * rng.NextBounded(8);  // odd, so every neighbor is in 2^0
  }
  Harness h(GaConfig(), biases);
  ASSERT_NE(h.Sampler().GroupAt(0), nullptr);
  EXPECT_EQ(h.Sampler().GroupAt(0)->Kind(), GroupKind::kDense);
  EXPECT_EQ(h.Sampler().GroupAt(0)->Count(), 50u);
  EXPECT_EQ(h.Sampler().GroupAt(0)->MemoryBytes(), 0u);  // no structure
  h.ExpectConsistent("dense");
}

TEST(VertexSamplerTest, SingleHugeBiasMakesOneElementGroup) {
  std::vector<double> biases(30, 2.0);
  biases[7] = 2.0 + 1024.0;  // bit 10 only set for neighbor 7
  Harness h(GaConfig(), biases);
  ASSERT_NE(h.Sampler().GroupAt(10), nullptr);
  EXPECT_EQ(h.Sampler().GroupAt(10)->Kind(), GroupKind::kOneElement);
  EXPECT_TRUE(h.Sampler().GroupAt(10)->Contains(7));
  h.ExpectConsistent("one-element");
}

TEST(VertexSamplerTest, SmallFractionMakesSparseGroup) {
  // 100 neighbors, 3 of them carry bit 5 -> 3% < beta.
  std::vector<double> biases(100, 2.0);
  biases[10] += 32.0;
  biases[50] += 32.0;
  biases[90] += 32.0;
  Harness h(GaConfig(), biases);
  ASSERT_NE(h.Sampler().GroupAt(5), nullptr);
  EXPECT_EQ(h.Sampler().GroupAt(5)->Kind(), GroupKind::kSparse);
  h.ExpectConsistent("sparse");
}

TEST(VertexSamplerTest, ConversionsAreRecorded) {
  // Start with a one-element group, then add members until it converts.
  std::vector<double> biases(100, 2.0);
  biases[0] += 32.0;
  Harness h(GaConfig(), biases);
  ASSERT_EQ(h.Sampler().GroupAt(5)->Kind(), GroupKind::kOneElement);
  h.Insert(32.0);
  h.Insert(32.0 + 2.0);
  EXPECT_EQ(h.Sampler().GroupAt(5)->Kind(), GroupKind::kSparse);
  EXPECT_GT(h.Stats().Get(GroupKind::kOneElement, GroupKind::kSparse) +
                h.Stats().Get(GroupKind::kRegular, GroupKind::kSparse),
            0u);
  h.ExpectConsistent("converted");
}

TEST(VertexSamplerTest, BsModeKeepsEverythingRegular) {
  util::Rng rng(4);
  Harness h(BsConfig(), BiasPattern(0, 60, rng));
  for (int k = 0; k < 12; ++k) {
    const RadixGroup* g = h.Sampler().GroupAt(k);
    if (g != nullptr && g->Count() > 0) {
      EXPECT_EQ(g->Kind(), GroupKind::kRegular) << "group " << k;
    }
  }
}

// GA and BS must imply the same distribution for identical input.
TEST(VertexSamplerTest, GaAndBsAgreeExactly) {
  util::Rng rng(5);
  const auto biases = BiasPattern(0, 80, rng);
  Harness ga(GaConfig(), biases);
  Harness bs(BsConfig(), biases);
  const auto pga = ga.Sampler().ImpliedDistribution(ga.Adj());
  const auto pbs = bs.Sampler().ImpliedDistribution(bs.Adj());
  ASSERT_EQ(pga.size(), pbs.size());
  for (std::size_t i = 0; i < pga.size(); ++i) {
    EXPECT_NEAR(pga[i], pbs[i], 1e-9);
  }
}

// GA memory must be below BS memory on skewed bias sets (Fig 11 property).
TEST(VertexSamplerTest, GaUsesLessMemoryThanBs) {
  util::Rng rng(6);
  std::vector<double> biases(400);
  for (auto& b : biases) {
    b = 1 + 2 * rng.NextBounded(127);  // odd biases: 2^0 fully dense
  }
  Harness ga(GaConfig(), biases);
  Harness bs(BsConfig(), biases);
  EXPECT_LT(ga.Sampler().MemoryBreakdown().Total(),
            bs.Sampler().MemoryBreakdown().Total());
}

// ----------------------------------------------------------- memory layout --

static_assert(sizeof(VertexSampler) <= 16, "per-vertex handle");
static_assert(sizeof(RadixGroup) <= 16, "per-group header");

TEST(VertexSamplerTest, EmptyRadixPositionsArePackedOut) {
  // Bits 0, 1 and 9: positions 2..8 hold no header and read as absent.
  Harness h(GaConfig(), {513.0, 512.0, 1.0, 2.0});
  ASSERT_NE(h.Sampler().GroupAt(0), nullptr);
  ASSERT_NE(h.Sampler().GroupAt(9), nullptr);
  EXPECT_EQ(h.Sampler().GroupAt(1)->Count(), 1u);
  EXPECT_EQ(h.Sampler().GroupAt(5), nullptr);
  EXPECT_EQ(h.Sampler().NumActiveGroups(), 3);
  h.DeleteIndex(1);  // 512 leaves; the 2.0 edge swaps into index 1
  h.DeleteIndex(1);  // 2.0 leaves: group 2^1 empties and is packed out
  h.ExpectConsistent("after deletes");
  EXPECT_EQ(h.Sampler().GroupAt(1), nullptr);
  EXPECT_EQ(h.Sampler().NumActiveGroups(), 2);
}

// Isolated -> fractional edges -> everything deleted -> re-inserted, under
// the ITS decimal policy: a block created lazily by an insert must carry
// the configured policy, and an emptied vertex must give its block back.
TEST(VertexSamplerTest, LazyBlockCarriesConfiguredDecimalPolicy) {
  for (const bool adaptive : {true, false}) {
    const std::string mode = adaptive ? "GA " : "BS ";
    BingoConfig config = adaptive ? GaConfig() : BsConfig();
    config.decimal_policy = DecimalGroup::Policy::kIts;
    Harness h(config, {});
    h.ExpectConsistent(mode + "isolated");
    const std::vector<double> biases = {3.25, 0.5, 7.75, 12.125, 1.0, 0.0625};
    for (int round = 0; round < 2; ++round) {
      for (const double b : biases) {
        h.Insert(b);
        h.ExpectConsistent(mode + "insert " + std::to_string(b));
        EXPECT_EQ(h.Sampler().Decimal().GetPolicy(),
                  DecimalGroup::Policy::kIts);
      }
      if (round == 0) {
        while (h.Degree() > 0) {
          h.DeleteIndex(0);
          h.ExpectConsistent(mode + "delete, degree " +
                             std::to_string(h.Degree()));
        }
      } else {
        std::vector<uint32_t> all(h.Degree());
        std::iota(all.begin(), all.end(), 0u);
        h.BatchDelete(all);
        h.ExpectConsistent(mode + "batch delete");
      }
      EXPECT_EQ(h.Sampler().MemoryBreakdown().Total(), 0u) << mode;
      util::Rng rng(round);
      EXPECT_EQ(h.Sampler().SampleIndex(h.Adj(), rng),
                VertexSampler::kNoNeighbor);
    }
  }
}

// ------------------------------------------------------- batched removal --

TEST(VertexSamplerTest, BatchRemovalLeavesExactDistribution) {
  util::Rng rng(7);
  for (const bool adaptive : {true, false}) {
    const auto biases = BiasPattern(0, 60, rng);
    Harness h(adaptive ? GaConfig() : BsConfig(), biases);
    // Mix of front, middle, and tail victims (exercises both phases of the
    // two-phase delete-and-swap).
    h.BatchDelete({3, 10, 11, 50, 58, 59});
    EXPECT_EQ(h.Degree(), 54u);
    h.ExpectConsistent(adaptive ? "GA batch" : "BS batch");
  }
}

TEST(VertexSamplerTest, BatchRemovalMatchesStreamingSurvivors) {
  util::Rng rng(8);
  const auto biases = BiasPattern(3, 40, rng);
  Harness batched(GaConfig(), biases);
  Harness streaming(GaConfig(), biases);
  const std::vector<uint32_t> victims = {0, 1, 5, 20, 38, 39};
  batched.BatchDelete(victims);
  // Streaming removals of the same *edges* (delete from the highest index
  // down so earlier removals do not rename later victims).
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
    streaming.DeleteIndex(*it);
  }
  ASSERT_EQ(batched.Degree(), streaming.Degree());
  // The surviving bias multisets must agree (adjacency order may differ).
  std::vector<double> a, b;
  for (uint32_t i = 0; i < batched.Degree(); ++i) {
    a.push_back(batched.BiasAt(i));
    b.push_back(streaming.BiasAt(i));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  batched.ExpectConsistent("batched side");
  streaming.ExpectConsistent("streaming side");
}

class BatchChurnParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchChurnParamTest, RandomBatchDeletionsStayExact) {
  util::Rng rng(GetParam() * 31 + 11);
  Harness h(GaConfig(), BiasPattern(0, 120, rng));
  while (h.Degree() > 4) {
    std::vector<uint32_t> victims;
    for (uint32_t i = 0; i < h.Degree(); ++i) {
      if (rng.NextBool(0.3)) {
        victims.push_back(i);
      }
    }
    if (victims.empty()) {
      victims.push_back(static_cast<uint32_t>(rng.NextBounded(h.Degree())));
    }
    h.BatchDelete(victims);
    h.ExpectConsistent("degree " + std::to_string(h.Degree()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchChurnParamTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace bingo::core
