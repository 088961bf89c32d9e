// FrequencyProfile::ApplyBatch — the arrival-order batch update path — plus
// the GroupView staleness trap and the stream->Event wiring.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/frequency_profile.h"
#include "core/keyed_profile.h"
#include "sprofile/event.h"
#include "stream/log_stream.h"
#include "util/random.h"

namespace sprofile {
namespace {

TEST(ApplyBatchTest, EmptyBatchIsANoOp) {
  FrequencyProfile p(4);
  p.ApplyBatch({});
  EXPECT_EQ(p.total_count(), 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ApplyBatchTest, SingleBatchMatchesLoopedApply) {
  FrequencyProfile batched(8);
  FrequencyProfile looped(8);
  const std::vector<Event> events = {
      Event::Add(1), Event::Add(1),    Event::Remove(3), Event::Add(5),
      Event::Add(1), Event::Remove(5), Event::Add(7),    Event::Remove(3)};
  batched.ApplyBatch(events);
  for (const Event& e : events) looped.Apply(e.id, e.delta > 0);

  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  EXPECT_EQ(batched.total_count(), looped.total_count());
  EXPECT_EQ(batched.Mode().frequency, looped.Mode().frequency);
  EXPECT_TRUE(batched.Validate().ok());
}

#ifndef NDEBUG
// The coalescer's observable win: a self-cancelling batch performs zero
// structural updates. The debug generation counter counts exactly those.
TEST(ApplyBatchTest, SelfCancellingBatchTouchesNoBlocks) {
  FrequencyProfile p(8);
  const uint64_t before = p.generation();
  std::vector<Event> storm;
  for (int round = 0; round < 50; ++round) {
    storm.push_back(Event::Add(3));
    storm.push_back(Event::Remove(3));
  }
  p.ApplyBatch(storm);
  EXPECT_EQ(p.generation(), before);  // like/unlike storm fully coalesced
  EXPECT_EQ(p.Frequency(3), 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ApplyBatchTest, CoalescedBatchDoesMinimalSteps) {
  FrequencyProfile p(8);
  const uint64_t before = p.generation();
  // Net effect: id 2 -> +2, id 4 -> -1; 3 structural steps from 7 events.
  p.ApplyBatch(std::vector<Event>{Event::Add(2), Event::Add(4),
                                  Event::Remove(4), Event::Add(2),
                                  Event::Remove(2), Event::Add(2),
                                  Event::Remove(4)});
  EXPECT_EQ(p.generation(), before + 3);
  EXPECT_EQ(p.Frequency(2), 2);
  EXPECT_EQ(p.Frequency(4), -1);
  EXPECT_TRUE(p.Validate().ok());
}

// Only ADJACENT inverse pairs are skipped: inverse events with another
// event between them replay step for step, exactly like looped Add/Remove.
TEST(ApplyBatchTest, NonAdjacentInversesCostTheLoopedSteps) {
  const std::vector<Event> events = {
      Event{1, +2}, Event::Add(3), Event{1, -2}, Event::Remove(3),
      Event::Add(5), Event::Add(6), Event::Remove(5)};
  FrequencyProfile batched(8);
  FrequencyProfile looped(8);
  const uint64_t batched_before = batched.generation();
  const uint64_t looped_before = looped.generation();
  batched.ApplyBatch(events);
  for (const Event& e : events) {
    for (int32_t d = e.delta; d > 0; --d) looped.Add(e.id);
    for (int32_t d = e.delta; d < 0; ++d) looped.Remove(e.id);
  }
  EXPECT_EQ(looped.generation() - looped_before, 9u);
  EXPECT_EQ(batched.generation() - batched_before,
            looped.generation() - looped_before);
  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  EXPECT_TRUE(batched.Validate().ok());
}

// The skip needs the same id AND the exactly negated delta.
TEST(ApplyBatchTest, AdjacentPairSkipNeedsExactInverse) {
  FrequencyProfile p(8);
  uint64_t before = p.generation();
  p.ApplyBatch(std::vector<Event>{Event{2, +3}, Event{2, -3}});
  EXPECT_EQ(p.generation(), before);
  EXPECT_EQ(p.Frequency(2), 0);

  before = p.generation();
  p.ApplyBatch(std::vector<Event>{Event{2, +3}, Event{2, -2}});
  EXPECT_EQ(p.generation(), before + 5);
  EXPECT_EQ(p.Frequency(2), 1);

  before = p.generation();
  p.ApplyBatch(std::vector<Event>{Event{2, +1}, Event{4, -1}});
  EXPECT_EQ(p.generation(), before + 2);
  EXPECT_EQ(p.Frequency(4), -1);

  // Extreme magnitudes pair off without ever stepping.
  before = p.generation();
  p.ApplyBatch(std::vector<Event>{Event{6, INT32_MAX}, Event{6, -INT32_MAX}});
  EXPECT_EQ(p.generation(), before);
  EXPECT_EQ(p.Frequency(6), 0);
  EXPECT_TRUE(p.Validate().ok());
}
#endif  // NDEBUG

TEST(ApplyBatchTest, RandomizedBatchesMatchLoopedReplay) {
  const uint32_t m = 97;
  FrequencyProfile batched(m);
  FrequencyProfile looped(m);
  Xoshiro256PlusPlus rng(0xBA7C4);

  for (int round = 0; round < 200; ++round) {
    const size_t batch_size = 1 + rng.Next() % 64;
    std::vector<Event> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      const uint32_t id = static_cast<uint32_t>(rng.Next() % m);
      const int32_t delta = static_cast<int32_t>(rng.Next() % 7) - 3;
      batch.push_back(Event{id, delta});
    }
    batched.ApplyBatch(batch);
    for (const Event& e : batch) {
      int32_t d = e.delta;
      for (; d > 0; --d) looped.Add(e.id);
      for (; d < 0; ++d) looped.Remove(e.id);
    }
    ASSERT_TRUE(batched.Validate().ok()) << "round " << round;
    ASSERT_EQ(batched.total_count(), looped.total_count()) << "round " << round;
  }
  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  EXPECT_EQ(batched.Histogram(), looped.Histogram());
}

TEST(ApplyBatchTest, BatchAfterInsertSlotResizesScratch) {
  FrequencyProfile p(2);
  p.ApplyBatch(std::vector<Event>{Event::Add(0)});
  const uint32_t grown = p.InsertSlot();
  ASSERT_EQ(grown, 2u);
  p.ApplyBatch(std::vector<Event>{Event::Add(grown), Event::Add(grown)});
  EXPECT_EQ(p.Frequency(grown), 2);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(KeyedApplyBatchTest, AppliesInOrderAndStopsAtFirstFailure) {
  using Keyed = KeyedProfile<std::string>;
  Keyed profile;  // create_on_remove defaults to false
  const std::vector<Keyed::KeyedEvent> ok_events = {
      {"alpha", true}, {"beta", true}, {"alpha", true}};
  ASSERT_TRUE(profile.ApplyBatch(ok_events).ok());
  EXPECT_EQ(profile.Frequency("alpha").value(), 2);

  const std::vector<Keyed::KeyedEvent> failing = {
      {"beta", false}, {"ghost", false}, {"alpha", false}};
  Status s = profile.ApplyBatch(failing);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // Events before the failure applied; events after did not.
  EXPECT_EQ(profile.Frequency("beta").value(), 0);
  EXPECT_EQ(profile.Frequency("alpha").value(), 2);
}

TEST(StreamEventsTest, GenerateEventsMirrorsGenerate) {
  const uint32_t m = 32;
  stream::LogStreamGenerator tuples(stream::MakePaperStreamConfig(2, m, 55));
  stream::LogStreamGenerator events(stream::MakePaperStreamConfig(2, m, 55));

  const std::vector<stream::LogTuple> t = tuples.Take(500);
  const std::vector<Event> e = events.TakeEvents(500);
  ASSERT_EQ(t.size(), e.size());
  for (size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(e[i], stream::ToEvent(t[i])) << "i=" << i;
    ASSERT_EQ(e[i].id, t[i].id);
    ASSERT_EQ(e[i].delta, t[i].is_add ? +1 : -1);
  }
}

#ifndef NDEBUG
using GroupViewDeathTest = testing::Test;

TEST(GroupViewDeathTest, UseAfterUpdateIsTrapped) {
  FrequencyProfile p(8);
  p.Add(1);
  p.Add(1);
  GroupView mode = p.Mode();
  EXPECT_EQ(mode.count(), 1u);  // live: fine
  p.Add(2);                     // invalidates the view
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode[0]; }, "CHECK failed");
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode.count(); }, "CHECK failed");
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode.ToVector(); }, "CHECK failed");
}

TEST(GroupViewDeathTest, ViewStaysLiveWithoutUpdates) {
  FrequencyProfile p(8);
  p.Add(4);
  const GroupView mode = p.Mode();
  EXPECT_EQ(mode.count(), 1u);
  EXPECT_EQ(mode[0], 4u);
  EXPECT_EQ(mode.ToVector(), std::vector<uint32_t>{4u});
}
#endif  // NDEBUG

}  // namespace
}  // namespace sprofile
