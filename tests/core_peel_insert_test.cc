// Tests for the structural extensions: PeelMin (frozen prefix) and
// InsertSlot (growth), including interleavings with regular updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/frequency_profile.h"
#include "util/random.h"

namespace sprofile {
namespace {

TEST(PeelMinTest, PeelsInNondecreasingFrequencyOrderWhenStatic) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({5, 1, 4, 1, 3});
  std::vector<int64_t> peeled;
  while (p.num_active() > 0) peeled.push_back(p.PeelMin().frequency);
  EXPECT_EQ(peeled, (std::vector<int64_t>{1, 1, 3, 4, 5}));
  EXPECT_EQ(p.num_frozen(), 5u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PeelMinTest, PeeledIdsArePermutation) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({2, 0, 1, 0, 2});
  std::vector<uint32_t> ids;
  while (p.num_active() > 0) ids.push_back(p.PeelMin().id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(PeelMinTest, FrozenFrequencyRemainsQueryable) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({7, 3, 9});
  const FrequencyEntry e = p.PeelMin();
  EXPECT_EQ(e.frequency, 3);
  EXPECT_TRUE(p.IsFrozen(e.id));
  EXPECT_EQ(p.Frequency(e.id), 3);
  EXPECT_EQ(p.num_active(), 2u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PeelMinTest, QueriesExcludeFrozenObjects) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({1, 5, 3});
  p.PeelMin();  // freezes the frequency-1 object
  EXPECT_EQ(p.MinFrequent().frequency, 3);
  EXPECT_EQ(p.Mode().frequency, 5);
  EXPECT_EQ(p.KthSmallest(1).frequency, 3);
  EXPECT_EQ(p.KthSmallest(2).frequency, 5);
  EXPECT_EQ(p.Histogram(), (std::vector<GroupStat>{{3, 1}, {5, 1}}));
  EXPECT_EQ(p.CountAtLeast(0), 2u) << "frozen objects leave the counts";
}

TEST(PeelMinTest, InterleavedUpdatesStayValid) {
  // Shaving-style loop: peel the min, then decrement a few remaining
  // objects, exactly what the k-core application does.
  FrequencyProfile p = FrequencyProfile::FromFrequencies({4, 6, 2, 8, 5, 3});
  Xoshiro256PlusPlus rng(77);
  while (p.num_active() > 1) {
    const FrequencyEntry peeled = p.PeelMin();
    (void)peeled;
    ASSERT_TRUE(p.Validate().ok());
    // Random ±1 churn on the remaining active objects.
    for (int i = 0; i < 3; ++i) {
      const uint32_t victim_rank =
          p.num_frozen() + static_cast<uint32_t>(rng.NextBounded(p.num_active()));
      const uint32_t id = p.IdAtRank(victim_rank);
      if (rng.NextDouble() < 0.5) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
      ASSERT_TRUE(p.Validate().ok());
    }
  }
  EXPECT_EQ(p.num_active(), 1u);
}

TEST(PeelMinTest, PeelBelowOriginalMinAfterDecrements) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({10, 10, 10});
  const FrequencyEntry first = p.PeelMin();
  EXPECT_EQ(first.frequency, 10);
  // Remaining objects sink below the frozen tombstone's frequency; the
  // active-side ordering must be unaffected by the tombstone.
  const uint32_t survivor = p.IdAtRank(p.num_frozen());
  for (int i = 0; i < 15; ++i) p.Remove(survivor);
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.MinFrequent().frequency, -5);
  EXPECT_EQ(p.PeelMin().frequency, -5);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PeelMinTest, TieGroupPeelsWholeBlockEventually) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({2, 2, 2, 9});
  EXPECT_EQ(p.PeelMin().frequency, 2);
  EXPECT_EQ(p.PeelMin().frequency, 2);
  EXPECT_EQ(p.PeelMin().frequency, 2);
  EXPECT_EQ(p.PeelMin().frequency, 9);
  EXPECT_EQ(p.num_active(), 0u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PeelMinTest, CountEqualAtAndAboveModeIgnoresFrozen) {
  // One tie group of 4 at the mode; peel until only part of it is active.
  FrequencyProfile p = FrequencyProfile::FromFrequencies({6, 2, 6, 6, 6});
  EXPECT_EQ(p.CountEqual(6), 4u);
  EXPECT_EQ(p.CountEqual(7), 0u);
  EXPECT_EQ(p.PeelMin().frequency, 2);
  EXPECT_EQ(p.PeelMin().frequency, 6);
  EXPECT_EQ(p.PeelMin().frequency, 6);
  EXPECT_EQ(p.CountEqual(6), 2u) << "frozen tie-group members left out";
  EXPECT_EQ(p.CountEqual(7), 0u);
  EXPECT_EQ(p.CountEqual(2), 0u);
  while (p.num_active() > 0) p.PeelMin();
  EXPECT_EQ(p.CountEqual(6), 0u) << "no active objects";
  EXPECT_EQ(p.CountEqual(7), 0u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PeelMinTest, TopGroupsNeverReachesFrozenIds) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({6, 2, 6, 1, 6, 4});
  EXPECT_EQ(p.PeelMin().frequency, 1);
  EXPECT_EQ(p.PeelMin().frequency, 2);
  EXPECT_EQ(p.TopGroups(100), (std::vector<GroupStat>{{6, 3}, {4, 1}}));
  // Every active id now sits in the tie group at 6, one of whose former
  // members is frozen just below it.
  EXPECT_EQ(p.PeelMin().frequency, 4);
  EXPECT_EQ(p.PeelMin().frequency, 6);
  EXPECT_EQ(p.TopGroups(1), (std::vector<GroupStat>{{6, 2}}));
  EXPECT_EQ(p.TopGroups(100), (std::vector<GroupStat>{{6, 2}}));
  while (p.num_active() > 0) p.PeelMin();
  EXPECT_TRUE(p.TopGroups(100).empty()) << "no active objects";
  EXPECT_TRUE(p.Validate().ok());
}

TEST(InsertSlotTest, GrowsFromEmpty) {
  FrequencyProfile p(0);
  const uint32_t a = p.InsertSlot();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(p.capacity(), 1u);
  EXPECT_EQ(p.Frequency(a), 0);
  EXPECT_TRUE(p.Validate().ok());
  const uint32_t b = p.InsertSlot();
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(p.num_blocks(), 1u) << "two zero-frequency slots share a block";
  EXPECT_TRUE(p.Validate().ok());
}

TEST(InsertSlotTest, InsertAmongPositiveFrequencies) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({3, 1, 2});
  const uint32_t id = p.InsertSlot();
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(p.Frequency(id), 0);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Histogram(),
            (std::vector<GroupStat>{{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
  EXPECT_EQ(p.MinFrequent().frequency, 0);
}

TEST(InsertSlotTest, InsertWithNegativeFrequenciesLandsAtZeroBoundary) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({-2, 5, -2, 1});
  const uint32_t id = p.InsertSlot();
  EXPECT_EQ(p.Frequency(id), 0);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Histogram(),
            (std::vector<GroupStat>{{-2, 2}, {0, 1}, {1, 1}, {5, 1}}));
}

TEST(InsertSlotTest, MergesIntoExistingZeroBlock) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({0, 4, 0});
  const size_t blocks_before = p.num_blocks();
  p.InsertSlot();
  EXPECT_EQ(p.num_blocks(), blocks_before) << "new slot joins the zero block";
  EXPECT_EQ(p.CountEqual(0), 3u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(InsertSlotTest, RepeatedGrowthUnderChurn) {
  FrequencyProfile p(2);
  Xoshiro256PlusPlus rng(123);
  for (int round = 0; round < 200; ++round) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(p.capacity()));
    switch (rng.NextBounded(3)) {
      case 0:
        p.Add(id);
        break;
      case 1:
        p.Remove(id);
        break;
      case 2:
        p.InsertSlot();
        break;
    }
    ASSERT_TRUE(p.Validate().ok()) << "round " << round;
  }
  EXPECT_GT(p.capacity(), 2u);
}

TEST(InsertSlotTest, NewSlotUsableImmediately) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({9, 9});
  const uint32_t id = p.InsertSlot();
  p.Add(id);
  p.Add(id);
  EXPECT_EQ(p.Frequency(id), 2);
  EXPECT_EQ(p.MinFrequent()[0], id);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(InsertSlotTest, GrowthAfterPeeling) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({1, 2, 3});
  p.PeelMin();
  const uint32_t id = p.InsertSlot();
  EXPECT_EQ(p.Frequency(id), 0);
  EXPECT_EQ(p.num_active(), 3u);
  EXPECT_EQ(p.MinFrequent().frequency, 0);
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace sprofile
