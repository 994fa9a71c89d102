// Tests for radix-group storage: classification (Eq 9), the inverted index,
// swap-with-tail deletion, index renaming, and the two-phase parallel
// delete-and-swap (Fig 10b).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/groups.h"
#include "src/util/memory_pool.h"
#include "src/util/rng.h"

namespace bingo::core {
namespace {

// The pool every group payload in this file lives in.
util::MemoryPool& Pool() {
  static util::MemoryPool pool;
  return pool;
}

AdaptiveConfig Ga() { return AdaptiveConfig{true, 40.0, 10.0}; }
AdaptiveConfig Bs() { return AdaptiveConfig{false, 40.0, 10.0}; }

// ---------------------------------------------------------- classification --

TEST(ClassifyTest, EmptyGroup) {
  EXPECT_EQ(ClassifyGroup(0, 100, Ga()), GroupKind::kEmpty);
  EXPECT_EQ(ClassifyGroup(0, 100, Bs()), GroupKind::kEmpty);
}

TEST(ClassifyTest, BsModeIsAlwaysRegular) {
  EXPECT_EQ(ClassifyGroup(1, 100, Bs()), GroupKind::kRegular);
  EXPECT_EQ(ClassifyGroup(99, 100, Bs()), GroupKind::kRegular);
  EXPECT_EQ(ClassifyGroup(5, 100, Bs()), GroupKind::kRegular);
}

TEST(ClassifyTest, DenseBeatsOneElement) {
  // Eq 9 order: a 1-of-2 group is 50% > alpha -> dense, not one-element.
  EXPECT_EQ(ClassifyGroup(1, 2, Ga()), GroupKind::kDense);
}

TEST(ClassifyTest, PaperExampleFig8) {
  // Fig 8: d = 8. Groups 2^0 and 2^1 with 4+ members are dense (> 40%);
  // group 2^4 with one member (12.5%) is one-element; a 2-member group
  // (25%) is regular; with d = 100 a 5-member group (5% < 10%) is sparse.
  EXPECT_EQ(ClassifyGroup(4, 8, Ga()), GroupKind::kDense);
  EXPECT_EQ(ClassifyGroup(5, 8, Ga()), GroupKind::kDense);
  EXPECT_EQ(ClassifyGroup(1, 8, Ga()), GroupKind::kOneElement);
  EXPECT_EQ(ClassifyGroup(2, 8, Ga()), GroupKind::kRegular);
  EXPECT_EQ(ClassifyGroup(5, 100, Ga()), GroupKind::kSparse);
}

TEST(ClassifyTest, BoundariesAreExclusive) {
  // Exactly alpha% is NOT dense; exactly beta% is NOT sparse.
  EXPECT_EQ(ClassifyGroup(40, 100, Ga()), GroupKind::kRegular);
  EXPECT_EQ(ClassifyGroup(41, 100, Ga()), GroupKind::kDense);
  EXPECT_EQ(ClassifyGroup(10, 100, Ga()), GroupKind::kRegular);
  EXPECT_EQ(ClassifyGroup(9, 100, Ga()), GroupKind::kSparse);
}

// ---------------------------------------------------------------- IndexMap --

TEST(IndexMapTest, InsertFindErase) {
  IndexMap map;
  map.Insert(10, 0);
  map.Insert(20, 1);
  map.Insert(30, 2);
  EXPECT_EQ(map.Size(), 3u);
  EXPECT_EQ(map.Find(20).value(), 1u);
  EXPECT_FALSE(map.Find(40).has_value());
  EXPECT_TRUE(map.Erase(20));
  EXPECT_FALSE(map.Find(20).has_value());
  EXPECT_FALSE(map.Erase(20));
  EXPECT_EQ(map.Size(), 2u);
}

TEST(IndexMapTest, UpdateRewritesValue) {
  IndexMap map;
  map.Insert(5, 100);
  EXPECT_TRUE(map.Update(5, 200));
  EXPECT_EQ(map.Find(5).value(), 200u);
  EXPECT_FALSE(map.Update(6, 1));
}

TEST(IndexMapTest, SurvivesGrowthAndTombstoneChurn) {
  IndexMap map;
  util::Rng rng(3);
  std::set<uint32_t> live;
  for (int round = 0; round < 5000; ++round) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(500));
    if (live.count(key)) {
      EXPECT_TRUE(map.Erase(key));
      live.erase(key);
    } else {
      map.Insert(key, key * 2);
      live.insert(key);
    }
  }
  EXPECT_EQ(map.Size(), live.size());
  for (uint32_t key : live) {
    ASSERT_TRUE(map.Find(key).has_value()) << key;
    EXPECT_EQ(map.Find(key).value(), key * 2);
  }
  for (uint32_t key = 0; key < 500; ++key) {
    if (!live.count(key)) {
      EXPECT_FALSE(map.Find(key).has_value()) << key;
    }
  }
}

// -------------------------------------------------------------- RadixGroup --

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<uint32_t> MembersOf(const RadixGroup& g) {
  std::vector<uint32_t> members;
  g.CollectMembers(members);
  return Sorted(members);
}

TEST(RadixGroupTest, EmptyToOneElementToRegularEscalation) {
  RadixGroup g;
  EXPECT_EQ(g.Kind(), GroupKind::kEmpty);
  g.Insert(7, 10, Pool());
  EXPECT_EQ(g.Kind(), GroupKind::kOneElement);
  EXPECT_EQ(g.Count(), 1u);
  g.Insert(3, 10, Pool());
  EXPECT_EQ(g.Kind(), GroupKind::kRegular);
  EXPECT_EQ(g.Count(), 2u);
  EXPECT_EQ(MembersOf(g), (std::vector<uint32_t>{3, 7}));
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST(RadixGroupTest, RegularRemoveKeepsInvariants) {
  RadixGroup g;
  std::vector<uint32_t> members = {0, 1, 2, 3, 4, 5};
  g.RebuildAs(GroupKind::kRegular, members, 6, Pool());
  g.Remove(2, Pool());
  g.Remove(5, Pool());
  EXPECT_EQ(g.Count(), 4u);
  EXPECT_EQ(MembersOf(g), (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
}

TEST(RadixGroupTest, RemoveLastMemberClearsGroup) {
  RadixGroup g;
  g.Insert(4, 5, Pool());
  g.Remove(4, Pool());
  EXPECT_EQ(g.Kind(), GroupKind::kEmpty);
  EXPECT_EQ(g.Count(), 0u);
  EXPECT_EQ(g.MemoryBytes(), 0u);
}

TEST(RadixGroupTest, RenameRegular) {
  RadixGroup g;
  std::vector<uint32_t> members = {0, 5, 9};
  g.RebuildAs(GroupKind::kRegular, members, 10, Pool());
  g.Rename(9, 2, Pool());
  EXPECT_TRUE(g.Contains(2));
  EXPECT_FALSE(g.Contains(9));
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
}

TEST(RadixGroupTest, RenameSparseAndOneElement) {
  RadixGroup sparse;
  std::vector<uint32_t> members = {10, 40};
  sparse.RebuildAs(GroupKind::kSparse, members, 100, Pool());
  sparse.Rename(40, 3, Pool());
  EXPECT_TRUE(sparse.Contains(3));
  EXPECT_FALSE(sparse.Contains(40));
  EXPECT_TRUE(sparse.CheckInvariants().empty());

  RadixGroup one;
  std::vector<uint32_t> single = {10};
  one.RebuildAs(GroupKind::kOneElement, single, 100, Pool());
  one.Rename(10, 0, Pool());
  EXPECT_TRUE(one.Contains(0));
}

TEST(RadixGroupTest, DenseStoresOnlyCount) {
  RadixGroup g;
  std::vector<uint32_t> members = {1, 2, 3, 4, 5};
  g.RebuildAs(GroupKind::kDense, members, 8, Pool());
  EXPECT_EQ(g.Count(), 5u);
  EXPECT_EQ(g.MemoryBytes(), 0u);
  g.Insert(6, 9, Pool());
  EXPECT_EQ(g.Count(), 6u);
  g.Remove(3, Pool());
  EXPECT_EQ(g.Count(), 5u);
  g.Rename(4, 0, Pool());  // no-op, must not crash
}

TEST(RadixGroupTest, PickUniformCoversAllMembers) {
  RadixGroup g;
  std::vector<uint32_t> members = {2, 4, 8, 16};
  g.RebuildAs(GroupKind::kRegular, members, 20, Pool());
  util::Rng rng(1);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint32_t pick = g.PickUniform(rng);
    EXPECT_TRUE(std::find(members.begin(), members.end(), pick) != members.end());
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), members.size());
}

TEST(RadixGroupTest, RebuildAsRoundTripsAcrossKinds) {
  std::vector<uint32_t> members = {3, 6, 9, 12};
  for (const GroupKind kind :
       {GroupKind::kRegular, GroupKind::kSparse, GroupKind::kDense}) {
    RadixGroup g;
    g.RebuildAs(kind, members, 16, Pool());
    EXPECT_EQ(g.Kind(), kind);
    EXPECT_EQ(g.Count(), 4u);
    if (kind != GroupKind::kDense) {
      EXPECT_EQ(MembersOf(g), members);
      EXPECT_TRUE(g.CheckInvariants().empty());
    }
  }
}

// Two-phase delete-and-swap property sweep: for random member sets and
// random victim subsets, BatchRemove must retain exactly the complement and
// keep the inverted index coherent.
class BatchRemoveParamTest
    : public ::testing::TestWithParam<std::tuple<GroupKind, int>> {};

TEST_P(BatchRemoveParamTest, RemovesExactlyTheVictims) {
  const auto [kind, seed] = GetParam();
  util::Rng rng(seed);
  const uint32_t size = 2 + static_cast<uint32_t>(rng.NextBounded(60));
  std::vector<uint32_t> members;
  for (uint32_t i = 0; i < size; ++i) {
    members.push_back(i * 3);  // arbitrary distinct neighbor indices
  }
  // Shuffle so member order differs from index order.
  for (std::size_t i = members.size(); i > 1; --i) {
    std::swap(members[i - 1], members[rng.NextBounded(i)]);
  }
  RadixGroup g;
  g.RebuildAs(kind, members, size * 3 + 1, Pool());

  std::vector<uint32_t> victims;
  std::vector<uint32_t> survivors;
  for (uint32_t m : members) {
    (rng.NextBool(0.4) ? victims : survivors).push_back(m);
  }
  if (victims.empty()) {
    victims.push_back(members[0]);
    survivors.erase(std::find(survivors.begin(), survivors.end(), members[0]));
  }
  g.BatchRemove(victims, Pool());
  EXPECT_EQ(g.Count(), survivors.size());
  if (kind != GroupKind::kDense && !survivors.empty()) {
    EXPECT_EQ(MembersOf(g), Sorted(survivors));
    EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchRemoveParamTest,
    ::testing::Combine(::testing::Values(GroupKind::kRegular, GroupKind::kSparse,
                                         GroupKind::kDense),
                       ::testing::Range(0, 25)));

TEST(RadixGroupTest, BatchRemoveAllClears) {
  RadixGroup g;
  std::vector<uint32_t> members = {1, 2, 3};
  g.RebuildAs(GroupKind::kRegular, members, 4, Pool());
  g.BatchRemove(members, Pool());
  EXPECT_EQ(g.Kind(), GroupKind::kEmpty);
}

// Random streaming churn against a reference std::set.
TEST(RadixGroupTest, StreamingChurnMatchesReferenceSet) {
  for (const GroupKind kind : {GroupKind::kRegular, GroupKind::kSparse}) {
    RadixGroup g;
    std::vector<uint32_t> init;
    g.RebuildAs(kind, init, 1, Pool());
    std::set<uint32_t> reference;
    util::Rng rng(kind == GroupKind::kRegular ? 5 : 6);
    for (int round = 0; round < 4000; ++round) {
      const uint32_t idx = static_cast<uint32_t>(rng.NextBounded(128));
      if (reference.count(idx)) {
        g.Remove(idx, Pool());
        reference.erase(idx);
      } else {
        g.Insert(idx, 128, Pool());
        reference.insert(idx);
      }
      ASSERT_EQ(g.Count(), reference.size());
    }
    if (!reference.empty()) {
      // After heavy churn the group may have escalated kinds; verify content.
      EXPECT_EQ(MembersOf(g),
                std::vector<uint32_t>(reference.begin(), reference.end()));
      EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
    }
  }
}

// Churn at a steady size: a sparse group holding ~5 members (16 hash slots)
// sees thousands of remove-one, insert-a-new-index rounds, so every erase
// leaves a tombstone while the live count never calls for a larger table.
// Growth must still rehash at the same capacity, or the slots fill with
// tombstones and the probe for an absent key never ends.
TEST(RadixGroupTest, SparseSteadySizeChurnRehashesTombstones) {
  RadixGroup g;
  std::vector<uint32_t> live = {0, 1, 2, 3, 4};
  g.RebuildAs(GroupKind::kSparse, live, 1000, Pool());
  uint32_t next = static_cast<uint32_t>(live.size());
  for (int round = 0; round < 5000; ++round) {
    const uint32_t victim = live[static_cast<std::size_t>(round) % live.size()];
    g.Remove(victim, Pool());
    EXPECT_FALSE(g.Contains(victim));
    g.Insert(next, 1000, Pool());
    live[static_cast<std::size_t>(round) % live.size()] = next;
    ++next;
    ASSERT_EQ(g.Kind(), GroupKind::kSparse);
    ASSERT_EQ(g.Count(), live.size());
  }
  std::vector<uint32_t> expected = live;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(MembersOf(g), expected);
  EXPECT_TRUE(g.CheckInvariants().empty()) << g.CheckInvariants();
}

}  // namespace
}  // namespace bingo::core
