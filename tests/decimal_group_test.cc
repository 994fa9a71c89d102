// Tests for the decimal group (§4.3) under both intra-group policies.

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <map>
#include <vector>

#include "src/core/decimal_group.h"
#include "src/util/memory_pool.h"
#include "src/sampling/exact.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace bingo::core {
namespace {

using Policy = DecimalGroup::Policy;

// The pool every decimal payload in this file lives in.
util::MemoryPool& Pool() {
  static util::MemoryPool pool;
  return pool;
}

// The decimal group as it was before its arrays moved into one pooled
// payload: member arrays in insertion/swap order, an inverted index over
// neighbor indices, prefix sums for ITS. Draws from it are the draws the
// group must keep making.
class ReferenceDecimal {
 public:
  explicit ReferenceDecimal(Policy policy) : policy_(policy) {}
  void Insert(uint32_t idx, uint32_t dec) {
    pos_[idx] = static_cast<uint32_t>(idx_.size());
    idx_.push_back(idx);
    dec_.push_back(dec);
    total_ += dec;
    cdf_.push_back(total_);
  }
  void Remove(uint32_t idx) {
    const uint32_t pos = pos_.at(idx);
    const uint32_t last = static_cast<uint32_t>(idx_.size()) - 1;
    total_ -= dec_[pos];
    if (pos != last) {
      idx_[pos] = idx_[last];
      dec_[pos] = dec_[last];
      pos_[idx_[pos]] = pos;
    }
    idx_.pop_back();
    dec_.pop_back();
    cdf_.pop_back();
    pos_.erase(idx);
    uint64_t running = pos == 0 ? 0 : cdf_[pos - 1];
    for (std::size_t i = pos; i < dec_.size(); ++i) {
      running += dec_[i];
      cdf_[i] = running;
    }
  }
  void Rename(uint32_t from, uint32_t to) {
    const uint32_t pos = pos_.at(from);
    pos_.erase(from);
    pos_[to] = pos;
    idx_[pos] = to;
  }
  uint32_t Sample(util::Rng& rng) const {
    if (policy_ == Policy::kIts) {
      const uint64_t x = rng.NextBounded(total_);
      return idx_[std::upper_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin()];
    }
    for (;;) {
      const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(idx_.size()));
      if (rng.NextU32() < dec_[pos]) {
        return idx_[pos];
      }
    }
  }
  bool Contains(uint32_t idx) const { return pos_.count(idx) != 0; }
  std::size_t Count() const { return idx_.size(); }

 private:
  Policy policy_;
  std::vector<uint32_t> idx_;
  std::vector<uint32_t> dec_;
  std::map<uint32_t, uint32_t> pos_;
  std::vector<uint64_t> cdf_;
  uint64_t total_ = 0;
};

class DecimalGroupPolicyTest : public ::testing::TestWithParam<Policy> {};

TEST_P(DecimalGroupPolicyTest, InsertRemoveTracksTotals) {
  DecimalGroup g(GetParam());
  g.Insert(0, 100, Pool());
  g.Insert(5, 200, Pool());
  g.Insert(2, 300, Pool());
  EXPECT_EQ(g.Count(), 3u);
  EXPECT_EQ(g.TotalFixed(), 600u);
  EXPECT_TRUE(g.Contains(5));
  EXPECT_EQ(g.DecOf(5), 200u);
  g.Remove(5, Pool());
  EXPECT_EQ(g.Count(), 2u);
  EXPECT_EQ(g.TotalFixed(), 400u);
  EXPECT_FALSE(g.Contains(5));
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
}

TEST_P(DecimalGroupPolicyTest, RenameMovesIndexKeepsWeight) {
  DecimalGroup g(GetParam());
  g.Insert(7, 1000, Pool());
  g.Insert(3, 2000, Pool());
  g.Rename(7, 12, Pool());
  EXPECT_FALSE(g.Contains(7));
  EXPECT_TRUE(g.Contains(12));
  EXPECT_EQ(g.DecOf(12), 1000u);
  EXPECT_EQ(g.TotalFixed(), 3000u);
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST_P(DecimalGroupPolicyTest, SamplingMatchesWeights) {
  DecimalGroup g(GetParam());
  // Deliberately skewed fixed-point weights.
  const std::vector<std::pair<uint32_t, uint32_t>> members = {
      {0, 1u << 30}, {1, 1u << 28}, {2, 3u << 28}, {3, 1u << 31}, {4, 1u << 20}};
  std::vector<double> weights;
  for (const auto& [idx, dec] : members) {
    g.Insert(idx, dec, Pool());
    weights.push_back(static_cast<double>(dec));
  }
  util::Rng rng(404);
  const auto counts = sampling::Histogram(
      members.size(), 300000, [&] { return g.Sample(rng); });
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, util::Normalize(weights)));
}

TEST_P(DecimalGroupPolicyTest, ChurnAgainstReferenceMap) {
  DecimalGroup g(GetParam());
  std::map<uint32_t, uint32_t> reference;
  util::Rng rng(55);
  for (int round = 0; round < 5000; ++round) {
    const uint32_t idx = static_cast<uint32_t>(rng.NextBounded(200));
    if (reference.count(idx)) {
      g.Remove(idx, Pool());
      reference.erase(idx);
    } else {
      const uint32_t dec = 1 + rng.NextU32() / 2;
      g.Insert(idx, dec, Pool());
      reference[idx] = dec;
    }
  }
  EXPECT_EQ(g.Count(), reference.size());
  uint64_t total = 0;
  for (const auto& [idx, dec] : reference) {
    EXPECT_TRUE(g.Contains(idx));
    EXPECT_EQ(g.DecOf(idx), dec);
    total += dec;
  }
  EXPECT_EQ(g.TotalFixed(), total);
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
}

// Inserts, removes and renames at random, mirrored on the pre-payload
// reference; after every few operations both draw the same sequence from
// equal streams.
TEST_P(DecimalGroupPolicyTest, DrawsMatchThePreviousLayout) {
  DecimalGroup g(GetParam());
  ReferenceDecimal reference(GetParam());
  util::Rng ops(77);
  uint32_t next_index = 0;
  std::vector<uint32_t> live;
  for (int round = 0; round < 3000; ++round) {
    const uint64_t op = ops.NextBounded(4);
    if (live.empty() || op <= 1) {
      const uint32_t idx = next_index++;
      const uint32_t dec = 1 + ops.NextU32() / 2;
      g.Insert(idx, dec, Pool());
      reference.Insert(idx, dec);
      live.push_back(idx);
    } else if (op == 2) {
      const std::size_t at = ops.NextBounded(live.size());
      g.Remove(live[at], Pool());
      reference.Remove(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      const std::size_t at = ops.NextBounded(live.size());
      const uint32_t to = next_index++;
      g.Rename(live[at], to, Pool());
      reference.Rename(live[at], to);
      live[at] = to;
    }
    ASSERT_EQ(g.Count(), reference.Count());
    if (round % 100 == 99 && !live.empty()) {
      ASSERT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
      util::Rng a(round);
      util::Rng b(round);
      for (int draw = 0; draw < 50; ++draw) {
        ASSERT_EQ(g.Sample(a), reference.Sample(b)) << "round " << round;
      }
    }
  }
  g.Clear(Pool());
}

// Two members far apart: the inverted index must not be sized by the
// highest neighbor index.
TEST_P(DecimalGroupPolicyTest, FarApartMembersCostBytesOfTheirCount) {
  DecimalGroup g(GetParam());
  g.Insert(0, 100, Pool());
  g.Insert(10000, 200, Pool());
  EXPECT_TRUE(g.Contains(10000));
  EXPECT_EQ(g.DecOf(10000), 200u);
  EXPECT_LE(g.MemoryBytes(), 256u) << "a 10001-entry position array is 40 KB";
  g.Rename(10000, 20000, Pool());
  g.Remove(0, Pool());
  EXPECT_TRUE(g.Contains(20000));
  EXPECT_LE(g.MemoryBytes(), 256u);
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
  g.Clear(Pool());
}

// A clone shares nothing with its original: churning either leaves the
// other exactly as it was.
TEST_P(DecimalGroupPolicyTest, CloneIsIndependentUnderChurn) {
  DecimalGroup g(GetParam());
  std::map<uint32_t, uint32_t> original;
  for (uint32_t idx = 0; idx < 300; idx += 3) {
    g.Insert(idx, 1000 + idx, Pool());
    original[idx] = 1000 + idx;
  }
  DecimalGroup copy = g.Clone(Pool());
  std::map<uint32_t, uint32_t> copied = original;
  util::Rng rng(8);
  for (int round = 0; round < 2000; ++round) {
    DecimalGroup& target = round % 2 == 0 ? g : copy;
    std::map<uint32_t, uint32_t>& model = round % 2 == 0 ? original : copied;
    const uint32_t idx = static_cast<uint32_t>(rng.NextBounded(400));
    if (model.count(idx)) {
      target.Remove(idx, Pool());
      model.erase(idx);
    } else {
      const uint32_t dec = 1 + rng.NextU32() / 2;
      target.Insert(idx, dec, Pool());
      model[idx] = dec;
    }
  }
  for (const auto& [group, model] :
       {std::pair<DecimalGroup*, std::map<uint32_t, uint32_t>*>{&g, &original},
        {&copy, &copied}}) {
    EXPECT_EQ(group->Count(), model->size());
    uint64_t total = 0;
    for (const auto& [idx, dec] : *model) {
      ASSERT_TRUE(group->Contains(idx));
      EXPECT_EQ(group->DecOf(idx), dec);
      total += dec;
    }
    EXPECT_EQ(group->TotalFixed(), total);
    EXPECT_TRUE(group->CheckInvariants().empty()) << group->CheckInvariants();
    group->Clear(Pool());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, DecimalGroupPolicyTest,
                         ::testing::Values(Policy::kRejection, Policy::kIts));

TEST(DecimalGroupTest, SetPolicySwitchesMidstream) {
  DecimalGroup g(Policy::kRejection);
  g.Insert(0, 500, Pool());
  g.Insert(1, 1500, Pool());
  g.SetPolicy(Policy::kIts, Pool());
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
  util::Rng rng(9);
  const auto counts = sampling::Histogram(2, 100000, [&] { return g.Sample(rng); });
  const std::vector<double> expected = {0.25, 0.75};
  EXPECT_TRUE(util::ChiSquareTestPasses(counts, expected));
  g.SetPolicy(Policy::kRejection, Pool());
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST(DecimalGroupTest, ClearReleasesEverything) {
  DecimalGroup g(Policy::kIts);
  g.Insert(0, 10, Pool());
  g.Insert(1, 20, Pool());
  g.Clear(Pool());
  EXPECT_EQ(g.Count(), 0u);
  EXPECT_EQ(g.TotalFixed(), 0u);
  EXPECT_EQ(g.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace bingo::core
