// Exclusive-epoch flat view (ISSUE 5) — the flat<->paged storage epoch
// machinery in cow::PagedArray and the FrequencyProfile kernel dispatch.
//
// Gates, in order of importance:
//   - flat<->paged PARITY: a profile that bounces between the flat kernel
//     and the paged kernel under an adversarial interleave of
//     Add/Remove/ApplyBatch/Snapshot/snapshot-drop answers exactly like a
//     deep-copy oracle, and every historical snapshot stays frozen.
//   - re-flatten correctness: in-place re-tagging when every page is
//     home, consolidation after faults or growth, and block reclamation
//     once the pinning snapshots are gone.
//   - the heap allocator: its blocks hold runs too, so the same epochs
//     engage on heap pages as on arena pages.
//
// The file name carries both "core" and "cow" on purpose: the ASan CI leg
// runs -R "engine|core", the TSan leg -R "engine|cow|arena" — this suite
// is the flat-epoch property gate under both sanitizers (ISSUE 5
// acceptance).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/cow_pages.h"
#include "core/frequency_profile.h"
#include "core/page_arena.h"
#include "sprofile/event.h"
#include "util/random.h"
#include "util/sync.h"

namespace sprofile {
namespace {

cow::PageAllocatorRef SmallArena() {
  return cow::MakeArenaPageAllocator(cow::ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
}

// ---------------------------------------------------------------------------
// PagedArray-level epoch transitions.
// ---------------------------------------------------------------------------

TEST(FlatEpochPagedArrayTest, EntersFlatAndSurvivesSnapshotCycle) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 4096);
  a.resize(4096);
  ASSERT_TRUE(a.EnsureFlat());
  ASSERT_TRUE(a.flat());
  ASSERT_NE(a.flat_data(), nullptr);
  EXPECT_EQ(a.DisplacedPageCount(), 0u);

  // Flat writes and paged reads address the same memory.
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i * 3;
  for (size_t i = 0; i < a.size(); i += 97) ASSERT_EQ(a[i], i * 3);

  {
    const cow::PagedArray<uint64_t> snap = a;
    EXPECT_FALSE(a.flat()) << "sharing ends the exclusive epoch";
    // Post-publish writes fault to displaced standalone pages.
    a.Mutable(7) = 777;
    a.Mutable(2048) = 888;
    EXPECT_GE(a.DisplacedPageCount(), 2u);
    EXPECT_EQ(snap[7], 21u) << "snapshot stays frozen";
    // Pinned: the flat epoch cannot resume yet.
    EXPECT_FALSE(a.EnsureFlat());
  }
  // Snapshot retired: re-flatten consolidates the displaced pages.
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
  EXPECT_EQ(a[7], 777u);
  EXPECT_EQ(a[2048], 888u);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i == 7 || i == 2048) continue;
    ASSERT_EQ(a[i], i * 3) << i;
    ASSERT_EQ(a.flat_data()[i], i * 3) << i;
  }
}

TEST(FlatEpochPagedArrayTest, GrowthPastRunConsolidates) {
  auto alloc = SmallArena();
  cow::PagedArray<uint32_t> a(alloc, 256);
  a.resize(256);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = static_cast<uint32_t>(i);
  // Grow well past the run: appended pages are standalone, flat is lost.
  for (size_t i = 256; i < 4096; ++i) a.push_back(static_cast<uint32_t>(i));
  EXPECT_FALSE(a.flat());
  // Consolidation restores one contiguous run with headroom.
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], i) << i;
    ASSERT_EQ(a.flat_data()[i], i) << i;
  }
  // The doubled run absorbs further growth without re-consolidating.
  const uint32_t* base = a.flat_data();
  a.push_back(4096u);
  EXPECT_TRUE(a.flat());
  EXPECT_EQ(a.flat_data(), base);
}

// Regression (code review): a snapshot holding the LAST reference to a
// page that still lives in the owner's home run used to write it in
// place (refs == 1 looked exclusive). But that slot is the owner's
// re-flatten merge TARGET: pass 2 assumes it holds the page's content as
// of the owner's fault and copies only the dirty run over it, so the
// snapshot's writes outside that span surfaced in the owner's array
// after the snapshot died — silent corruption, and writable snapshots
// are documented API. A borrowed home-run page must COW-fault instead.
TEST(FlatEpochPagedArrayTest, SnapshotWriteToBorrowedHomePageDoesNotCorruptOwner) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 2048);
  a.resize(2048);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i;
  const size_t per_page = a.elems_per_page();
  const size_t base = per_page;  // page 1

  auto snap = std::make_optional<cow::PagedArray<uint64_t>>(a);
  // Owner writes first: faults page 1 to a dirty-tracked standalone copy
  // and drops its home reference — the home slot's last ref is now the
  // snapshot's.
  a.Mutable(base + 3) = 111;
  // Snapshot writes the SAME page, inside and outside the owner's dirty
  // run. refs == 1, but the payload is the owner's home-run slot: the
  // write must copy out, never land in place.
  (*snap).Mutable(base + 7) = 222;
  (*snap).Mutable(base + 3) = 333;
  EXPECT_EQ((*snap)[base + 3], 333u);
  EXPECT_EQ((*snap)[base + 7], 222u);
  EXPECT_EQ(a[base + 3], 111u);
  EXPECT_EQ(a[base + 7], base + 7) << "owner must not see snapshot writes";

  snap.reset();
  // Owner re-flattens: only its dirty run [3, 3] merges back home. With
  // the bug, the home slot still carried the snapshot's write at +7.
  ASSERT_TRUE(a.EnsureFlat());
  // Deep-copy oracle: the owner's array is its pre-snapshot content plus
  // its own single write.
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t want = (i == base + 3) ? 111u : i;
    ASSERT_EQ(a[i], want) << i;
    ASSERT_EQ(a.flat_data()[i], want) << i;
  }
}

// Regression (code review): outgrew_run_ stayed sticky after resize()
// shrank the array back under the run, so the next EnsureFlat paid a
// full consolidation (fresh doubled run, every page copied) instead of
// the cheap in-place repair.
TEST(FlatEpochPagedArrayTest, ShrinkBackIntoRunRepairsInPlace) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i;
  const uint64_t* run_base = a.flat_data();

  a.resize(4096);  // grow past the run: overflow pages are standalone
  EXPECT_FALSE(a.flat());
  a.resize(1024);  // ... and shrink back under it
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.flat_data(), run_base)
      << "shrinking back under the run must repair in place, not "
         "consolidate into a new run";
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i) << i;
}

TEST(FlatEpochPagedArrayTest, HeapAllocatorRunsTheSameEpochs) {
  // A heap block holds a run as well as an arena carve does: the array
  // is born flat in one block, a snapshot ends the epoch, and dropping
  // the snapshot lets it re-flatten.
  auto alloc = std::make_shared<cow::HeapPageAllocator>();
  cow::PagedArray<uint64_t> a(alloc, 2048);
  a.resize(2048);
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(alloc->Stats().pages_allocated, 1u) << "one home run";
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i;
  {
    const cow::PagedArray<uint64_t> snap = a;
    a.Mutable(3) = 999;
    EXPECT_EQ(snap[3], 3u);
    EXPECT_EQ(a[3], 999u);
    EXPECT_FALSE(a.EnsureFlat()) << "the snapshot still pins page 0";
    // A second snapshot shares the fault copy; the owner then re-faults
    // the same page, leaving that copy to the second snapshot alone.
    const cow::PagedArray<uint64_t> snap2 = a;
    a.Mutable(3) = 1000;
    EXPECT_EQ(snap2[3], 999u);
  }
  // Quiescent, no probe since the snapshots dropped: exactly the home run
  // and the current fault copy of page 0 are live.
  EXPECT_EQ(alloc->Stats().pages_live(), 2u);
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.flat_data()[3], 1000u);
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
  // Back to baseline: one run holds the whole array.
  EXPECT_EQ(alloc->Stats().pages_live(), 1u);
}

// ---------------------------------------------------------------------------
// FrequencyProfile-level property test: adversarial interleave of
// updates, batches, snapshots, snapshot drops, and re-flatten probes,
// checked against a deep-copy oracle. Runs on both allocators; both
// engage the flat kernel.
// ---------------------------------------------------------------------------

struct HeldSnapshot {
  FrequencyProfile snap;
  std::vector<int64_t> expected;
};

void RunEpochInterleave(cow::PageAllocatorRef alloc, uint64_t seed) {
  constexpr uint32_t kM = 1500;
  constexpr int kOps = 30000;
  FrequencyProfile p(kM, std::move(alloc));
  FrequencyProfile oracle(kM, std::make_shared<cow::HeapPageAllocator>());
  Xoshiro256PlusPlus rng(seed);
  std::deque<HeldSnapshot> held;
  uint64_t flat_seen = 0;
  uint64_t total_updates = 0;

  for (int i = 0; i < kOps; ++i) {
    switch (rng.NextBounded(100)) {
      case 0: {  // take a snapshot and remember the exact expected state
        held.push_back(HeldSnapshot{p.Snapshot(), p.ToFrequencies()});
        EXPECT_FALSE(p.storage_flat()) << "snapshot must end the flat epoch";
        break;
      }
      case 1: {  // drop the oldest snapshot, verifying it stayed frozen
        if (!held.empty()) {
          EXPECT_EQ(held.front().snap.ToFrequencies(), held.front().expected);
          held.pop_front();
        }
        break;
      }
      case 2: {  // explicit re-flatten probe (the engine's idle hook)
        p.TryReflatten();
        break;
      }
      case 3:
      case 4: {  // write THROUGH a held snapshot (documented API): the
        // snapshot may hold the last reference to a page still sitting in
        // the parent's home run — its write must COW out, never land in
        // the parent's merge target (the borrowed-home-page regression).
        if (!held.empty()) {
          HeldSnapshot& h = held.back();
          const uint32_t id = rng.NextBounded(kM);
          h.snap.Add(id);
          h.expected[id] += 1;
        }
        break;
      }
      case 5: {  // a batch with duplicate ids
        std::vector<Event> batch;
        const uint32_t n = 1 + rng.NextBounded(12);
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t id = rng.NextBounded(kM);
          const int32_t delta = rng.NextBounded(2) == 0 ? 1 : -1;
          batch.push_back(Event{id, delta});
          if (delta > 0) {
            oracle.Add(id);
          } else {
            oracle.Remove(id);
          }
        }
        p.ApplyBatch(batch);
        total_updates += n;
        break;
      }
      default: {  // plain +/-1 update
        const uint32_t id = rng.NextBounded(kM);
        if (rng.NextBounded(2) == 0) {
          p.Add(id);
          oracle.Add(id);
        } else {
          p.Remove(id);
          oracle.Remove(id);
        }
        ++total_updates;
        break;
      }
    }
    if (p.storage_flat()) ++flat_seen;
    if (i % 4096 == 0) {
      ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
      ASSERT_EQ(p.ToFrequencies(), oracle.ToFrequencies()) << "op " << i;
    }
  }

  for (const HeldSnapshot& h : held) {
    EXPECT_EQ(h.snap.ToFrequencies(), h.expected);
  }
  held.clear();

  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(p.ToFrequencies(), oracle.ToFrequencies());
  EXPECT_EQ(p.Histogram(), oracle.Histogram());
  EXPECT_EQ(p.total_count(), oracle.total_count());

  // ApplyBatch skips adjacent inverse pairs, so applied +/-1 steps can be
  // fewer than raw events — compare with that slack in mind.
  EXPECT_LE(p.paged_updates(), total_updates);
  EXPECT_GT(flat_seen, 0u) << "flat epoch never observed";
  // With every snapshot gone the flat epoch must be reachable, and the
  // answers identical across the final transition.
  EXPECT_TRUE(p.TryReflatten());
  EXPECT_EQ(p.ToFrequencies(), oracle.ToFrequencies());
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
}

TEST(FlatEpochProfilePropertyTest, ArenaInterleaveMatchesOracle) {
  RunEpochInterleave(SmallArena(), 20260730);
  RunEpochInterleave(SmallArena(), 99417);
}

TEST(FlatEpochProfilePropertyTest, HeapInterleaveMatchesOracle) {
  RunEpochInterleave(std::make_shared<cow::HeapPageAllocator>(), 20260730);
}

TEST(FlatEpochProfilePropertyTest, PeelAndInsertInterleaveStaysConsistent) {
  // Structural ops (PeelMin / InsertSlot) drop the flat epoch; growth past
  // the runs must consolidate back to flat without corrupting the
  // structure. KeyedProfile-style growth is InsertSlot-heavy.
  FrequencyProfile p(64, SmallArena());
  Xoshiro256PlusPlus rng(7);
  uint32_t m = 64;
  for (int i = 0; i < 8000; ++i) {
    const uint32_t r = rng.NextBounded(100);
    if (r < 3) {
      m = p.capacity();
      ASSERT_EQ(p.InsertSlot(), m);
      m = p.capacity();
    } else if (r < 5 && p.num_active() > 1) {
      p.PeelMin();
    } else if (r == 5) {
      p.TryReflatten();
    } else {
      uint32_t id = rng.NextBounded(m);
      int guard = 0;
      while (p.IsFrozen(id) && guard++ < 64) id = rng.NextBounded(m);
      if (p.IsFrozen(id)) continue;
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
    if (i % 1024 == 0) {
      ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
    }
  }
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_TRUE(p.TryReflatten());
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
}

// ---------------------------------------------------------------------------
// The TSan shape: readers grab, hold, and drop snapshots concurrently
// while the owner churns and keeps probing the flat epoch. Exercises
// blocked probes, consolidation (forced and not) and home-slot reuse
// against concurrent reader-side page releases.
// ---------------------------------------------------------------------------

TEST(FlatEpochConcurrentTest, ReflattenRacesSnapshotDrops) {
  constexpr uint32_t kM = 2048;
  constexpr int kRounds = 150;
  constexpr int kReaders = 3;
  FrequencyProfile p(kM, SmallArena());

  sprofile::Mutex mu;
  std::shared_ptr<const FrequencyProfile> published;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t acc = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const FrequencyProfile> snap;
        {
          sprofile::MutexLock lock(mu);
          snap = published;
        }
        if (snap == nullptr) continue;
        int64_t sum = 0;
        for (uint32_t id = 0; id < kM; id += 13) sum += snap->Frequency(id);
        acc += static_cast<uint64_t>(sum);
        snap.reset();  // reader-side drop races the owner's re-flatten
      }
      (void)acc;
    });
  }

  Xoshiro256PlusPlus rng(123);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 768; ++i) {
      const uint32_t id = rng.NextBounded(kM);
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
    p.TryReflatten();  // often blocked by `published` at its first page
    auto snap = std::make_shared<const FrequencyProfile>(p.Snapshot());
    {
      sprofile::MutexLock lock(mu);
      published = std::move(snap);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  {
    sprofile::MutexLock lock(mu);
    published.reset();
  }
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_TRUE(p.TryReflatten());
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace sprofile
