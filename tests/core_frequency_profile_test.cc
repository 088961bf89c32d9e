#include "core/frequency_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace sprofile {
namespace {

std::vector<uint32_t> SortedIds(const GroupView& view) {
  std::vector<uint32_t> ids = view.ToVector();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FrequencyProfileTest, FreshProfileIsAllZero) {
  FrequencyProfile p(5);
  EXPECT_EQ(p.capacity(), 5u);
  EXPECT_EQ(p.num_active(), 5u);
  EXPECT_EQ(p.total_count(), 0);
  EXPECT_EQ(p.num_blocks(), 1u);
  for (uint32_t id = 0; id < 5; ++id) EXPECT_EQ(p.Frequency(id), 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, SingleAddMovesMode) {
  FrequencyProfile p(4);
  p.Add(2);
  EXPECT_EQ(p.Frequency(2), 1);
  const GroupView mode = p.Mode();
  EXPECT_EQ(mode.frequency, 1);
  EXPECT_EQ(SortedIds(mode), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, SingleRemoveGoesNegative) {
  // The paper allows "remove" of never-added objects (§2.2): the minimum
  // frequency "maybe a negative number".
  FrequencyProfile p(4);
  p.Remove(1);
  EXPECT_EQ(p.Frequency(1), -1);
  const GroupView min = p.MinFrequent();
  EXPECT_EQ(min.frequency, -1);
  EXPECT_EQ(SortedIds(min), (std::vector<uint32_t>{1}));
  EXPECT_EQ(p.Mode().frequency, 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, PaperFigure1And2Walkthrough) {
  // Figure 1(a): F = [0, 3, 1, 3, 0, 0, 0, 0] (0-based ids), sorted
  // T = [0,0,0,0,0,1,3,3], blocks {(1,5,0),(6,6,1),(7,8,3)} in the paper's
  // 1-based notation.
  FrequencyProfile p = FrequencyProfile::FromFrequencies({0, 3, 1, 3, 0, 0, 0, 0});
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.num_blocks(), 3u);
  EXPECT_EQ(p.Histogram(),
            (std::vector<GroupStat>{{0, 5}, {1, 1}, {3, 2}}));
  EXPECT_EQ(p.Mode().frequency, 3);
  EXPECT_EQ(SortedIds(p.Mode()), (std::vector<uint32_t>{1, 3}));

  // Figure 1(b)/(d): add object "1" (paper ids are 1-based; our id 0).
  p.Add(0);
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Frequency(0), 1);
  EXPECT_EQ(p.Histogram(),
            (std::vector<GroupStat>{{0, 4}, {1, 2}, {3, 2}}));

  // Figure 2: remove object "4" (our id 3): 3 -> 2, creating a new block.
  p.Remove(3);
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Frequency(3), 2);
  EXPECT_EQ(p.Histogram(),
            (std::vector<GroupStat>{{0, 4}, {1, 2}, {2, 1}, {3, 1}}));
  EXPECT_EQ(p.Mode().frequency, 3);
  EXPECT_EQ(SortedIds(p.Mode()), (std::vector<uint32_t>{1}));
  EXPECT_EQ(p.num_blocks(), 4u);
}

TEST(FrequencyProfileTest, ModeTiesReportWholeGroup) {
  FrequencyProfile p(6);
  p.Add(1);
  p.Add(4);
  p.Add(5);
  const GroupView mode = p.Mode();
  EXPECT_EQ(mode.frequency, 1);
  EXPECT_EQ(SortedIds(mode), (std::vector<uint32_t>{1, 4, 5}));
  EXPECT_EQ(mode.count(), 3u);
}

TEST(FrequencyProfileTest, AddRemoveRoundTripRestoresZeroState) {
  FrequencyProfile p(8);
  for (uint32_t id = 0; id < 8; ++id) p.Add(id);
  for (uint32_t id = 0; id < 8; ++id) p.Remove(id);
  EXPECT_EQ(p.total_count(), 0);
  EXPECT_EQ(p.num_blocks(), 1u);
  EXPECT_EQ(p.Mode().frequency, 0);
  EXPECT_EQ(p.MinFrequent().frequency, 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, KthOrderStatistics) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({5, 1, 4, 1, 3});
  // Sorted: 1 1 3 4 5.
  EXPECT_EQ(p.KthSmallest(1).frequency, 1);
  EXPECT_EQ(p.KthSmallest(3).frequency, 3);
  EXPECT_EQ(p.KthSmallest(5).frequency, 5);
  EXPECT_EQ(p.KthLargest(1).frequency, 5);
  EXPECT_EQ(p.KthLargest(2).frequency, 4);
  EXPECT_EQ(p.KthLargest(5).frequency, 1);
  // Representative ids carry the right frequency.
  EXPECT_EQ(p.Frequency(p.KthLargest(1).id), 5);
  EXPECT_EQ(p.KthLargest(1).id, 0u);
}

TEST(FrequencyProfileTest, MedianLowerAndUpper) {
  FrequencyProfile odd = FrequencyProfile::FromFrequencies({9, 2, 5});
  EXPECT_EQ(odd.MedianEntry().frequency, 5);
  EXPECT_EQ(odd.UpperMedianEntry().frequency, 5);

  FrequencyProfile even = FrequencyProfile::FromFrequencies({1, 2, 3, 4});
  EXPECT_EQ(even.MedianEntry().frequency, 2);
  EXPECT_EQ(even.UpperMedianEntry().frequency, 3);
}

TEST(FrequencyProfileTest, QuantileEndpoints) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({10, 20, 30, 40, 50});
  EXPECT_EQ(p.Quantile(0.0).frequency, 10);
  EXPECT_EQ(p.Quantile(1.0).frequency, 50);
  EXPECT_EQ(p.Quantile(0.5).frequency, 30);
  EXPECT_EQ(p.Quantile(0.25).frequency, 20);
}

TEST(FrequencyProfileTest, CountQueries) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({0, 0, 1, 2, 2, 2, 7});
  EXPECT_EQ(p.CountAtLeast(0), 7u);
  EXPECT_EQ(p.CountAtLeast(1), 5u);
  EXPECT_EQ(p.CountAtLeast(2), 4u);
  EXPECT_EQ(p.CountAtLeast(3), 1u);
  EXPECT_EQ(p.CountAtLeast(8), 0u);
  EXPECT_EQ(p.CountEqual(2), 3u);
  EXPECT_EQ(p.CountEqual(5), 0u);
  EXPECT_EQ(p.CountLess(2), 3u);
}

TEST(FrequencyProfileTest, TopKWalksDescending) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({4, 9, 1, 6});
  std::vector<FrequencyEntry> top;
  p.TopK(3, &top);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].frequency, 9);
  EXPECT_EQ(top[1].frequency, 6);
  EXPECT_EQ(top[2].frequency, 4);
  // Asking for more than m caps at m.
  top.clear();
  p.TopK(100, &top);
  EXPECT_EQ(top.size(), 4u);
}

TEST(FrequencyProfileTest, TopGroupsWalksGroupsDownFromTheMode) {
  // Histogram: {0: 1, 2: 2, 5: 3, 9: 1}.
  FrequencyProfile p = FrequencyProfile::FromFrequencies({5, 2, 9, 5, 0, 2, 5});
  EXPECT_TRUE(p.TopGroups(0).empty());
  EXPECT_EQ(p.TopGroups(1), (std::vector<GroupStat>{{9, 1}}));
  // A cut inside the tie group at 5 returns the whole group.
  EXPECT_EQ(p.TopGroups(2), (std::vector<GroupStat>{{9, 1}, {5, 3}}));
  EXPECT_EQ(p.TopGroups(4), (std::vector<GroupStat>{{9, 1}, {5, 3}}));
  EXPECT_EQ(p.TopGroups(5), (std::vector<GroupStat>{{9, 1}, {5, 3}, {2, 2}}));
  std::vector<GroupStat> reversed = p.Histogram();
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(p.TopGroups(7), reversed);
  EXPECT_EQ(p.TopGroups(100), reversed) << "k > num_active()";
  EXPECT_TRUE(FrequencyProfile(0).TopGroups(5).empty());
}

TEST(FrequencyProfileTest, MajorityDetection) {
  FrequencyProfile p(3);
  p.Add(1);
  p.Add(1);
  p.Add(2);
  // total = 3, max = 2 > 1.5: majority.
  EXPECT_TRUE(p.HasMajority());
  p.Add(2);
  // total = 4, max = 2, not > 2: no majority.
  EXPECT_FALSE(p.HasMajority());
}

TEST(FrequencyProfileTest, ApplyDispatchesOnAction) {
  FrequencyProfile p(2);
  p.Apply(0, true);
  p.Apply(0, true);
  p.Apply(0, false);
  EXPECT_EQ(p.Frequency(0), 1);
}

TEST(FrequencyProfileTest, SingleObjectProfile) {
  FrequencyProfile p(1);
  p.Add(0);
  p.Add(0);
  EXPECT_EQ(p.Mode().frequency, 2);
  EXPECT_EQ(p.MinFrequent().frequency, 2);
  EXPECT_EQ(p.MedianEntry().frequency, 2);
  p.Remove(0);
  p.Remove(0);
  p.Remove(0);
  EXPECT_EQ(p.Mode().frequency, -1);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, FromFrequenciesMatchesIncrementalConstruction) {
  const std::vector<int64_t> freqs = {3, 0, 2, 2, 7, 0, 1};
  FrequencyProfile bulk = FrequencyProfile::FromFrequencies(freqs);
  FrequencyProfile inc(static_cast<uint32_t>(freqs.size()));
  for (uint32_t id = 0; id < freqs.size(); ++id) {
    for (int64_t i = 0; i < freqs[id]; ++i) inc.Add(id);
  }
  EXPECT_TRUE(bulk.Validate().ok());
  EXPECT_TRUE(inc.Validate().ok());
  EXPECT_EQ(bulk.Histogram(), inc.Histogram());
  EXPECT_EQ(bulk.total_count(), inc.total_count());
  for (uint32_t id = 0; id < freqs.size(); ++id) {
    EXPECT_EQ(bulk.Frequency(id), freqs[id]);
    EXPECT_EQ(inc.Frequency(id), freqs[id]);
  }
}

TEST(FrequencyProfileTest, FromFrequenciesWithNegativeValues) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({-5, 3, -5, 0});
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.MinFrequent().frequency, -5);
  EXPECT_EQ(p.MinFrequent().count(), 2u);
  EXPECT_EQ(p.Mode().frequency, 3);
}

TEST(FrequencyProfileTest, CloneIsIndependent) {
  FrequencyProfile p(4);
  p.Add(0);
  FrequencyProfile q = p.Clone();
  q.Add(0);
  EXPECT_EQ(p.Frequency(0), 1);
  EXPECT_EQ(q.Frequency(0), 2);
}

TEST(FrequencyProfileTest, EmptyProfileSupportsConstruction) {
  FrequencyProfile p(0);
  EXPECT_EQ(p.capacity(), 0u);
  EXPECT_EQ(p.num_active(), 0u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(FrequencyProfileTest, RanksAreConsistentWithSortedOrder) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({4, 1, 3, 1, 0});
  // Ranks ascending by frequency: T = [0, 1, 1, 3, 4].
  int64_t prev = p.Frequency(p.IdAtRank(0));
  for (uint32_t rank = 1; rank < p.capacity(); ++rank) {
    const int64_t cur = p.Frequency(p.IdAtRank(rank));
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  for (uint32_t id = 0; id < p.capacity(); ++id) {
    EXPECT_EQ(p.IdAtRank(p.RankOf(id)), id);
  }
}

TEST(FrequencyProfileTest, BlockCountNeverExceedsDistinctFrequencies) {
  FrequencyProfile p(100);
  for (uint32_t i = 0; i < 100; ++i) {
    for (uint32_t j = 0; j < i % 5; ++j) p.Add(i);
  }
  // Frequencies take values {0,1,2,3,4}: at most 5 blocks.
  EXPECT_LE(p.num_blocks(), 5u);
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace sprofile
