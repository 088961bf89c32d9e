// Batch replay parity property suite — FrequencyProfile::ApplyBatch (the
// arrival-order replay loop with its flat-epoch warm pass, prefetch
// lookahead and adjacent-pair skip) must answer exactly like a plain
// per-id counter oracle under randomized update/snapshot interleavings.
//
// Gates, in order of importance:
//   - ORACLE PARITY after every batch, on arena pages and on heap pages.
//     Both run the flat epoch and its prefetch staging; the heap stream
//     holds a snapshot of the empty profile for its whole length, so it
//     replays through the paged kernel from the first batch until the
//     forced reflatten.
//   - BENCHMARK-SCALE m: 2^19 ids (one shard of the repository
//     benchmark's 2^20) under Zipf and adjacent-pair streams in
//     drain-sized batches, so the warm pass and the lookahead run over a
//     working set larger than L2, with a snapshot held mid-stream.
//   - HELD SNAPSHOTS stay frozen at their take-time contents while the
//     owner keeps batching.
//   - FORCED REFLATTEN: a long-lived snapshot pins pages the gentle
//     EnsureFlat probe can never reclaim; after kForceReflattenUpdates
//     paged updates the profile must force its way back to the flat epoch
//     (cow::PagedArray::ForceFlat) without perturbing the snapshot, by
//     copying the pinned pages into fresh runs rather than faulting them.
//
// The file name carries both "core" and "cow" on purpose: the ASan CI leg
// runs -R "engine|core", the TSan leg -R "engine|cow|arena" — this suite
// is the replay parity gate under both sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/cow_pages.h"
#include "core/flat_kernel.h"
#include "core/frequency_profile.h"
#include "core/page_arena.h"
#include "sprofile/event.h"
#include "stream/distribution.h"
#include "util/random.h"

namespace sprofile {
namespace {

cow::PageAllocatorRef SmallArena() {
  return cow::MakeArenaPageAllocator(cow::ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
}

cow::PageAllocatorRef Heap() {
  return std::make_shared<cow::HeapPageAllocator>();
}

constexpr uint32_t kM = 4096;
constexpr int kBatches = 160;

// One held snapshot plus the frequencies it must keep answering forever.
struct HeldSnapshot {
  FrequencyProfile snap;
  std::vector<int64_t> expected;
};

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t total = 0;
  for (const int64_t f : v) total += f;
  return total;
}

// Drives one seeded interleaving of ApplyBatch / singles / snapshot
// take+drop against a plain counter oracle, checking the whole profile
// after every batch. With `pin_from_start`, a snapshot of the empty
// profile is held across the whole stream, so the first batches replay
// through the paged kernel.
void RunParityInterleave(cow::PageAllocatorRef alloc, uint64_t seed,
                         bool pin_from_start = false) {
  FrequencyProfile p(kM, std::move(alloc));
  std::vector<int64_t> oracle(kM, 0);
  std::deque<HeldSnapshot> held;
  Xoshiro256PlusPlus rng(seed);
  std::optional<HeldSnapshot> pin;
  if (pin_from_start) pin.emplace(HeldSnapshot{p.Snapshot(), oracle});

  for (int b = 0; b < kBatches; ++b) {
    const uint32_t r = rng.NextBounded(100);
    if (r < 8) {
      // Singles keep the non-batch Add/Remove kernel in the interleave.
      for (int i = 0; i < 64; ++i) {
        const uint32_t id = rng.NextBounded(kM);
        if (rng.NextBounded(2) == 0) {
          p.Add(id);
          ++oracle[id];
        } else {
          p.Remove(id);
          --oracle[id];
        }
      }
    } else {
      // Batch sizes straddle the lookahead depth (24) and kWarmMinBatch
      // (256). The id universe narrows on some batches so neighbouring
      // events share ids and blocks.
      const size_t n = 1 + rng.NextBounded(rng.NextBounded(2) == 0
                                               ? 48
                                               : simd::kWarmMinBatch + 200);
      const uint32_t universe =
          rng.NextBounded(3) == 0 ? 1 + rng.NextBounded(64) : kM;
      std::vector<Event> batch;
      batch.reserve(2 * n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t id = rng.NextBounded(universe);
        const int32_t delta =
            static_cast<int32_t>(1 + rng.NextBounded(3)) *
            (rng.NextBounded(2) == 0 ? 1 : -1);
        batch.push_back(Event{id, delta});
        oracle[id] += delta;
        const uint32_t follow = rng.NextBounded(8);
        if (follow == 0) {
          // Exact inverse: the adjacent pair ApplyBatch skips.
          batch.push_back(Event{id, -delta});
          oracle[id] -= delta;
        } else if (follow == 1) {
          // Near-inverse on the same id: must NOT be skipped.
          const int32_t near = delta > 0 ? -delta + 1 : -delta - 1;
          batch.push_back(Event{id, near});
          oracle[id] += near;
        }
      }
      p.ApplyBatch(batch);
    }
    ASSERT_EQ(p.ToFrequencies(), oracle)
        << "diverged (seed=" << seed << " batch=" << b << ")";
    ASSERT_EQ(p.total_count(), Sum(oracle))
        << "seed=" << seed << " batch=" << b;

    // Snapshot churn: takes pin pages (ending any flat epoch), drops let
    // the gentle re-flatten resume. Long-held ones force divergence.
    if (rng.NextBounded(5) == 0 && held.size() < 4) {
      held.push_back(HeldSnapshot{p.Snapshot(), oracle});
    }
    if (rng.NextBounded(6) == 0 && !held.empty()) {
      const HeldSnapshot& h = held.front();
      ASSERT_EQ(h.snap.ToFrequencies(), h.expected)
          << "dropped snapshot diverged (seed=" << seed << " batch=" << b
          << ")";
      held.pop_front();
    }
  }

  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  for (const HeldSnapshot& h : held) {
    ASSERT_EQ(h.snap.ToFrequencies(), h.expected)
        << "held snapshot diverged (seed=" << seed << ")";
  }
  if (pin) {
    EXPECT_GT(p.paged_updates(), 0u) << "seed=" << seed;
    ASSERT_EQ(pin->snap.ToFrequencies(), pin->expected)
        << "whole-stream snapshot diverged (seed=" << seed << ")";
  }
}

constexpr uint64_t kSeeds[] = {20260808, 97, 1, 424242, 7777, 31337};

TEST(BatchParityPropertyTest, ArenaMatchesOracle) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    RunParityInterleave(SmallArena(), seed);
  }
}

TEST(BatchParityPropertyTest, HeapMatchesOracle) {
  // The whole-stream snapshot ends the flat epoch before the first batch:
  // the paged kernel replays until the forced reflatten takes over.
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    RunParityInterleave(Heap(), seed, /*pin_from_start=*/true);
  }
}

// ---------------------------------------------------------------------------
// Benchmark-scale m: the staging actually runs on a beyond-L2 working set.
// ---------------------------------------------------------------------------

constexpr uint32_t kLargeM = 1u << 19;
constexpr size_t kLargeBatch = 1024;  // EngineOptions::drain_batch default
constexpr int kLargeBatches = 48;

enum class Shape { kZipf, kPairs };

// Zipf(1.1) with 75% adds; or about 80% adjacent (x,+1),(x,-1) pairs on
// 1024 hot ids plus a uniform tail with 25% removes.
std::vector<Event> LargeBatch(Shape shape, const stream::ZipfIdDistribution& zipf,
                              Xoshiro256PlusPlus* rng) {
  std::vector<Event> batch;
  batch.reserve(kLargeBatch + 1);
  while (batch.size() < kLargeBatch) {
    if (shape == Shape::kZipf) {
      batch.push_back(Event{zipf.Sample(rng), rng->NextBounded(4) == 0 ? -1 : 1});
    } else if (rng->NextBounded(10) < 8) {
      const auto id = static_cast<uint32_t>(rng->NextBounded(1024));
      batch.push_back(Event::Add(id));
      batch.push_back(Event::Remove(id));
    } else {
      batch.push_back(Event{static_cast<uint32_t>(rng->NextBounded(kLargeM)),
                            rng->NextBounded(4) == 0 ? -1 : 1});
    }
  }
  return batch;
}

void RunLargeM(cow::PageAllocatorRef alloc, Shape shape) {
  FrequencyProfile p(kLargeM, std::move(alloc));
  std::vector<int64_t> oracle(kLargeM, 0);
  const stream::ZipfIdDistribution zipf(kLargeM, 1.1);
  Xoshiro256PlusPlus rng(shape == Shape::kZipf ? 11 : 12);
  std::optional<HeldSnapshot> held;
  uint64_t applied = 0;

  for (int b = 0; b < kLargeBatches; ++b) {
    const std::vector<Event> batch = LargeBatch(shape, zipf, &rng);
    p.ApplyBatch(batch);
    for (const Event& e : batch) oracle[e.id] += e.delta;
    applied += batch.size();
    ASSERT_EQ(p.ToFrequencies(), oracle) << "batch=" << b;
    ASSERT_EQ(p.total_count(), Sum(oracle)) << "batch=" << b;
    // A publication held across a third of the run: the epoch ends, the
    // replay runs paged until the forced reflatten, then flat again.
    if (b == kLargeBatches / 3) held.emplace(HeldSnapshot{p.Snapshot(), oracle});
    if (b == 2 * kLargeBatches / 3) {
      ASSERT_EQ(held->snap.ToFrequencies(), held->expected);
      held.reset();
    }
  }
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  // Most updates ran flat, i.e. behind the warm pass and the lookahead.
  EXPECT_LT(p.paged_updates(), applied / 4);
  EXPECT_TRUE(p.TryReflatten());
}

TEST(BatchParityLargeMTest, ZipfArena) {
  RunLargeM(cow::MakeArenaPageAllocator(), Shape::kZipf);
}

TEST(BatchParityLargeMTest, PairsArena) {
  RunLargeM(cow::MakeArenaPageAllocator(), Shape::kPairs);
}

TEST(BatchParityLargeMTest, ZipfHeap) {
  RunLargeM(Heap(), Shape::kZipf);
}

TEST(BatchParityLargeMTest, PairsHeap) {
  RunLargeM(Heap(), Shape::kPairs);
}

// ---------------------------------------------------------------------------
// Forced reflatten (cow::PagedArray::ForceFlat).
// ---------------------------------------------------------------------------

TEST(KernelParityForceFlatTest, PagedArrayForceFlatEvictsPinnedSnapshot) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 4096);
  a.resize(4096);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i * 5;

  const cow::PagedArray<uint64_t> snap = a;
  a.Mutable(11) = 1111;
  ASSERT_FALSE(a.EnsureFlat()) << "gentle probe must stay pinned";

  // Forced divergence: consolidate straight into a fresh run the snapshot
  // has no claim on, reading still-shared pages in place — no COW fault.
  const uint64_t faults = alloc->Stats().cow_faults;
  ASSERT_TRUE(a.ForceFlat());
  ASSERT_TRUE(a.flat());
  EXPECT_EQ(alloc->Stats().cow_faults, faults)
      << "ForceFlat must not fault pages it is about to copy again";
  EXPECT_EQ(a[11], 1111u);
  for (size_t i = 0; i < a.size(); i += 37) {
    if (i == 11) continue;
    ASSERT_EQ(a[i], i * 5) << i;
    ASSERT_EQ(a.flat_data()[i], i * 5) << i;
  }
  // Post-force flat writes must not leak into the still-held snapshot.
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = 9;
  EXPECT_EQ(snap[11], 55u);
  for (size_t i = 0; i < snap.size(); i += 37) {
    if (i == 11) continue;
    ASSERT_EQ(snap[i], i * 5) << i;
  }
}

TEST(KernelParityForceFlatTest, HeapForceFlatEvictsPinnedSnapshot) {
  auto alloc = Heap();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  const cow::PagedArray<uint64_t> snap = a;
  a.Mutable(3) = 33;
  ASSERT_FALSE(a.EnsureFlat()) << "gentle probe must stay pinned";
  ASSERT_TRUE(a.ForceFlat());
  EXPECT_EQ(a[3], 33u);
  EXPECT_EQ(a.flat_data()[3], 33u);
  a.flat_data()[5] = 55;
  EXPECT_EQ(snap[3], 0u);
  EXPECT_EQ(snap[5], 0u);
}

TEST(KernelParityForceFlatTest, ProfileForcesFlatUnderHeldSnapshot) {
  // The engine shape that motivated ForceFlat: a retained publish pins the
  // profile's pages while the owner keeps batching. The gentle probe can
  // never win; after kForceReflattenUpdates paged updates TryReflatten
  // must force the flat epoch back — with the snapshot still live and
  // still frozen.
  FrequencyProfile p(kM, SmallArena());
  std::vector<int64_t> oracle(kM, 0);
  Xoshiro256PlusPlus rng(424242);

  // Seed some mass, enter the flat epoch, then pin it with a snapshot.
  for (uint32_t id = 0; id < kM; ++id) {
    p.Add(id % 97);
    ++oracle[id % 97];
  }
  ASSERT_TRUE(p.TryReflatten());
  const FrequencyProfile snap = p.Snapshot();
  const std::vector<int64_t> snap_expected = oracle;
  EXPECT_FALSE(p.storage_flat()) << "sharing ends the exclusive epoch";

  // Far more than kForceReflattenUpdates of paged batch work.
  for (int b = 0; b < 64; ++b) {
    std::vector<Event> batch;
    batch.reserve(400);
    for (int i = 0; i < 400; ++i) {
      const uint32_t id = rng.NextBounded(kM);
      const int32_t delta = rng.NextBounded(2) == 0 ? 1 : -1;
      batch.push_back(Event{id, delta});
      oracle[id] += delta;
    }
    p.ApplyBatch(batch);
  }

  EXPECT_TRUE(p.storage_flat())
      << "forced reflatten never fired despite a snapshot-pinned, "
         "write-hot profile";
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(p.ToFrequencies(), oracle);
  EXPECT_EQ(snap.ToFrequencies(), snap_expected)
      << "forced divergence leaked into a held snapshot";

  // Pin again, then exactly kForceReflattenUpdates paged singles on a few
  // ids, so most pages stay shared. Each periodic probe sees at most
  // kForceReflattenUpdates - 1 paged updates, so the explicit probe below
  // is the forcing call: it must consolidate without one COW fault.
  const FrequencyProfile snap2 = p.Snapshot();
  const std::vector<int64_t> snap2_expected = oracle;
  for (uint32_t i = 0; i < FrequencyProfile::kForceReflattenUpdates; ++i) {
    const uint32_t id = rng.NextBounded(8);
    if (i % 3 == 2) {
      p.Remove(id);
      --oracle[id];
    } else {
      p.Add(id);
      ++oracle[id];
    }
  }
  ASSERT_FALSE(p.storage_flat());
  ASSERT_GT(p.page_allocator()->Stats().cow_faults, 0u);
  const uint64_t faults = p.page_allocator()->Stats().cow_faults;
  ASSERT_TRUE(p.TryReflatten());
  EXPECT_EQ(p.page_allocator()->Stats().cow_faults, faults)
      << "the forcing call faulted pages it then copied again";
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(p.ToFrequencies(), oracle);
  EXPECT_EQ(snap2.ToFrequencies(), snap2_expected)
      << "forced consolidation leaked into a held snapshot";
  EXPECT_EQ(snap.ToFrequencies(), snap_expected);
}

TEST(KernelParityForceFlatTest, ForcedEpochMatchesOracle) {
  // Same held-snapshot hammering with an oracle check after every batch:
  // the replay must keep parity across the paged -> forced-flat switch.
  FrequencyProfile p(kM, SmallArena());
  std::vector<int64_t> oracle(kM, 0);
  Xoshiro256PlusPlus rng(7777);
  ASSERT_TRUE(p.TryReflatten());
  const FrequencyProfile snap = p.Snapshot();
  for (int b = 0; b < 48; ++b) {
    std::vector<Event> batch;
    batch.reserve(300);
    for (int i = 0; i < 300; ++i) {
      const Event e{static_cast<uint32_t>(rng.NextBounded(kM)),
                    rng.NextBounded(2) == 0 ? 1 : -1};
      batch.push_back(e);
      oracle[e.id] += e.delta;
    }
    p.ApplyBatch(batch);
    ASSERT_EQ(p.ToFrequencies(), oracle) << "batch=" << b;
  }
  EXPECT_TRUE(p.storage_flat());
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(snap.ToFrequencies(), std::vector<int64_t>(kM, 0));
}

}  // namespace
}  // namespace sprofile
