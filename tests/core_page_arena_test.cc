// ArenaPageAllocator — the hugepage-arena layer under cow::PagedArray.
//
// Gates, in order of importance:
//   - arena reclamation under snapshot pinning: a writer churns while
//     rotating historical snapshots pin arbitrary pages; drained arenas
//     must come back (a lone pinned page may hold its own arena, never
//     the allocator's history). Single- and multi-threaded (the latter is
//     the TSan shape: readers drop snapshots concurrently with the
//     writer's faults).
//   - allocator-parity: a FrequencyProfile / KeyedProfile on arena pages
//     answers exactly like one on heap pages.
//   - block mechanics: alignment, stats accounting, doubling growth,
//     oversized requests, spare-mapping reuse.
//   - ASan poisoning: freed blocks and uncarved arena space read as
//     poisoned, a re-carved block does not (skipped outside ASan).
//   - AdaptivePageElems geometry.
//
// Runs under ASan in CI (the default allocator there is the arena, as in
// every build) and under TSan via the concurrent torture test.

#include "core/page_arena.h"

#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/frequency_profile.h"
#include "core/keyed_profile.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/sync.h"

namespace sprofile {
namespace cow {
namespace {

TEST(AdaptivePageElemsTest, GeometryFollowsElementWidthAndCapacity) {
  // 8-byte elements: the classic 4 KiB page (512 elems).
  EXPECT_EQ(AdaptivePageElems(8, 0), 512u);
  // Narrow elements are capped at kMaxPageElems, shrinking the fault tax
  // with the width: a 4-byte array faults 2 KiB, not 4 KiB.
  EXPECT_EQ(AdaptivePageElems(4, 0), 512u);
  EXPECT_EQ(AdaptivePageElems(1, 0), 512u);
  // Wide elements stay within kPageBytes of payload.
  EXPECT_EQ(AdaptivePageElems(16, 0), 256u);
  // Small arrays get small pages (floored at kMinPageElems).
  EXPECT_EQ(AdaptivePageElems(8, 10), 64u);
  EXPECT_EQ(AdaptivePageElems(8, 100), 128u);
  // Big arrays scale the page UP so the page table stays ~L1-resident
  // (kTargetPageTableEntries), bounded by the per-fault payload cap.
  EXPECT_EQ(AdaptivePageElems(8, 1u << 20), (1u << 20) / kTargetPageTableEntries);
  EXPECT_LE(AdaptivePageElems(8, 1u << 28) * 8, kMaxPagePayloadBytes);
  // Elements larger than a page degenerate to one element per page.
  EXPECT_EQ(AdaptivePageElems(8192, 0), 1u);
  // Always a power of two.
  for (size_t w : {1u, 3u, 4u, 7u, 8u, 12u, 16u, 100u}) {
    for (uint64_t hint : {0u, 1u, 5u, 1000u, 1u << 20}) {
      EXPECT_TRUE(std::has_single_bit(AdaptivePageElems(w, hint)))
          << w << "/" << hint;
    }
  }
}

TEST(ArenaPageAllocatorTest, BlocksAreAlignedAndAccounted) {
  ArenaPageAllocator alloc(ArenaOptions{.first_arena_bytes = 64 * 1024});
  std::vector<std::pair<void*, size_t>> blocks;
  for (size_t bytes : {100u, 4096u, 4160u, 64u, 7u}) {
    void* p = alloc.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u) << bytes;
    // The block is writable over its whole requested size.
    std::memset(p, 0xab, bytes);
    blocks.emplace_back(p, bytes);
  }
  PageAllocStats s = alloc.Stats();
  EXPECT_EQ(s.pages_allocated, blocks.size());
  EXPECT_EQ(s.pages_freed, 0u);
  EXPECT_GE(s.arenas_created, 1u);
  EXPECT_GT(s.page_bytes_live, 0u);
  for (auto& [p, bytes] : blocks) alloc.Deallocate(p, bytes);
  s = alloc.Stats();
  EXPECT_EQ(s.pages_freed, blocks.size());
  EXPECT_EQ(s.page_bytes_live, 0u);
}

TEST(ArenaPageAllocatorTest, ArenasDoubleUpToSteadyState) {
  const size_t kSteady = 512 * 1024;
  ArenaPageAllocator alloc(
      ArenaOptions{.arena_bytes = kSteady, .first_arena_bytes = 64 * 1024});
  // Filling ~2 MiB through a 64 KiB -> 128 -> 256 -> 512 KiB doubling
  // ladder needs 64+128+256+512(+512...) KiB => at least 5 arenas, far
  // fewer than the ~32 a constant 64 KiB sizing would take.
  std::vector<void*> blocks;
  const size_t kBlock = 4096;
  for (size_t total = 0; total < (2u << 20); total += kBlock) {
    blocks.push_back(alloc.Allocate(kBlock));
  }
  const PageAllocStats s = alloc.Stats();
  EXPECT_GE(s.arenas_created, 5u);
  EXPECT_LE(s.arenas_created, 8u);
  for (void* p : blocks) alloc.Deallocate(p, kBlock);
}

TEST(ArenaPageAllocatorTest, OversizedRequestGetsDedicatedArena) {
  ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = 64 * 1024,
                                        .first_arena_bytes = 64 * 1024});
  const size_t kBig = 1u << 20;  // 16x the arena size
  void* p = alloc.Allocate(kBig);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, kBig);
  alloc.Deallocate(p, kBig);
  const PageAllocStats s = alloc.Stats();
  EXPECT_EQ(s.page_bytes_live, 0u);
  EXPECT_GE(s.arenas_reclaimed, 1u);
}

TEST(ArenaPageAllocatorTest, FootprintSizesFirstArenaForEveryCaller) {
  // The shared sizing helper: first mapping = bit_floor(footprint),
  // clamped to [the default floor, arena_bytes].
  EXPECT_EQ(ArenaOptionsForFootprint(uint64_t{3} << 20).first_arena_bytes,
            kDefaultArenaBytes);
  EXPECT_EQ(ArenaOptionsForFootprint(300 * 1024).first_arena_bytes,
            size_t{256} * 1024);
  EXPECT_EQ(ArenaOptionsForFootprint(1024).first_arena_bytes,
            ArenaOptions{}.first_arena_bytes);
  // Regression (code review): a STANDALONE profile with a hugepage-sized
  // footprint must also start on a hugepage-eligible mapping instead of
  // climbing the 64 KiB doubling ladder — the footprint sizing used to
  // live engine-privately, so only shard allocators got it and a plain
  // FrequencyProfile/KeyedProfile kept the "hugepage_arenas stays 0"
  // pathology ISSUE 5 fixed for the engine.
  const PageAllocatorRef def = MakeProfileDefaultAllocator(uint64_t{4} << 20);
  const auto* arena = dynamic_cast<const ArenaPageAllocator*>(def.get());
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->options().first_arena_bytes, kDefaultArenaBytes);
}

TEST(ArenaPageAllocatorTest, DrainedSealedArenasAreReclaimed) {
  ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = 64 * 1024,
                                        .first_arena_bytes = 64 * 1024,
                                        .max_spare_arenas = 0});
  const size_t kBlock = 4096;
  constexpr int kWaves = 16;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<void*> blocks;
    for (int i = 0; i < 64; ++i) blocks.push_back(alloc.Allocate(kBlock));
    for (void* p : blocks) alloc.Deallocate(p, kBlock);
  }
  const PageAllocStats s = alloc.Stats();
  // Every wave seals several 64 KiB arenas; all of them drain. Only the
  // current bump arena may be left standing.
  EXPECT_GT(s.arenas_reclaimed, static_cast<uint64_t>(kWaves));
  EXPECT_LE(s.arenas_live, 2u);
  EXPECT_EQ(s.page_bytes_live, 0u);
}

TEST(ArenaPageAllocatorTest, SpareMappingAbsorbsChurn) {
  ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = 64 * 1024,
                                        .first_arena_bytes = 64 * 1024,
                                        .max_spare_arenas = 1});
  const size_t kBlock = 4096;
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<void*> blocks;
    for (int i = 0; i < 32; ++i) blocks.push_back(alloc.Allocate(kBlock));
    for (void* p : blocks) alloc.Deallocate(p, kBlock);
  }
  const PageAllocStats s = alloc.Stats();
  // Drained arenas beyond the spare slot are returned to the OS...
  EXPECT_GT(s.arenas_reclaimed, 0u);
  // ...and the gauges balance: live (current + warm spare) is exactly
  // created minus reclaimed, and stays small despite the churn.
  EXPECT_EQ(s.arenas_created - s.arenas_reclaimed, s.arenas_live);
  EXPECT_LE(s.arenas_live, 3u);  // bump target + spare + in-flight slack
  EXPECT_EQ(s.arena_bytes_mapped, s.arenas_live * (64 * 1024));
}

// Regression for the BENCH_engine.json "hugepage_arenas = 0 at 8 shards"
// report (ISSUE 5 satellite): the gauge was CORRECT — small per-shard
// footprints never climb the doubling ladder to a 2 MiB mapping — but
// nothing pinned its accounting. This test pins the invariants through
// every lifecycle edge (create, drain, spare-park, spare-reuse, unmap):
// the gauge never exceeds live mappings, survives spare recycling without
// double counting, and collapses to zero when every mapping is returned.
TEST(ArenaPageAllocatorTest, HugepageGaugeStaysConsistentThroughLifecycle) {
  const size_t kArena = kDefaultArenaBytes;  // 2 MiB: hugepage-eligible
  auto check = [](const PageAllocStats& s, const char* where) {
    EXPECT_LE(s.hugepage_arenas, s.arenas_live) << where;
    EXPECT_EQ(s.arenas_created - s.arenas_reclaimed, s.arenas_live) << where;
  };
  {
    ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = kArena,
                                          .first_arena_bytes = kArena,
                                          .max_spare_arenas = 1});
    const PageAllocStats empty = alloc.Stats();
    EXPECT_EQ(empty.hugepage_arenas, 0u);
    // Waves of whole-arena churn through the spare slot: a recycled huge
    // spare must stay counted exactly once.
    for (int wave = 0; wave < 6; ++wave) {
      std::vector<void*> blocks;
      for (int i = 0; i < 4; ++i) blocks.push_back(alloc.Allocate(kArena / 8));
      check(alloc.Stats(), "loaded");
      for (void* p : blocks) alloc.Deallocate(p, kArena / 8);
      check(alloc.Stats(), "drained");
    }
    // Oversized request: a dedicated >= 2 MiB mapping is hugepage-eligible
    // too (whole-array runs take this path at large m).
    void* big = alloc.Allocate(3 * kArena);
    check(alloc.Stats(), "oversized live");
    alloc.Deallocate(big, 3 * kArena);
    check(alloc.Stats(), "oversized freed");
  }
  // With max_spare_arenas = 0 every drained mapping unmaps, and the gauge
  // must return to exactly zero (an underflow would wrap the uint64).
  ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = kArena,
                                        .first_arena_bytes = kArena,
                                        .max_spare_arenas = 0});
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(alloc.Allocate(kArena / 4));
  for (void* p : blocks) alloc.Deallocate(p, kArena / 4);
  const PageAllocStats end = alloc.Stats();
  check(end, "fully drained");
  EXPECT_LE(end.arenas_live, 1u);  // at most the current bump target
  if (end.arenas_live == 0) {
    EXPECT_EQ(end.hugepage_arenas, 0u)
        << "gauge must collapse with the last mapping";
  }
  EXPECT_EQ(end.page_bytes_live, 0u);
}

// ASan sees into arenas: a mapping is poisoned until carved, and a block
// is poisoned again once freed — including when its drained arena parks
// as a spare and a later request re-carves the same bytes.
#if defined(__SANITIZE_ADDRESS__)
#define ARENA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARENA_TEST_ASAN 1
#endif
#endif

TEST(ArenaPoisonTest, FreedAndUncarvedBytesArePoisoned) {
#if defined(ARENA_TEST_ASAN)
  constexpr size_t kArena = 64 * 1024;
  constexpr size_t kBig = 40 * 1024;  // two never share one arena
  ArenaPageAllocator alloc(ArenaOptions{.arena_bytes = kArena,
                                        .first_arena_bytes = kArena,
                                        .max_spare_arenas = 1});
  auto poisoned = [](const void* p) {
    return __asan_address_is_poisoned(p) != 0;
  };

  char* x = static_cast<char*>(alloc.Allocate(kBig));
  EXPECT_FALSE(poisoned(x));
  EXPECT_FALSE(poisoned(x + kBig - 1));
  // The rest of x's arena has never been carved.
  EXPECT_TRUE(poisoned(x + kBig));
  EXPECT_TRUE(poisoned(x + kArena - 128));

  // y seals x's arena and opens a second one; freeing x drains the
  // first, which parks as the spare.
  char* y = static_cast<char*>(alloc.Allocate(kBig));
  alloc.Deallocate(x, kBig);
  EXPECT_TRUE(poisoned(x));
  EXPECT_TRUE(poisoned(x + kBig - 1));
  EXPECT_FALSE(poisoned(y));

  // z seals y's arena and re-carves the spare from its start.
  char* z = static_cast<char*>(alloc.Allocate(kBig));
  ASSERT_EQ(z, x) << "expected the spare mapping to be recycled";
  EXPECT_FALSE(poisoned(z));
  EXPECT_FALSE(poisoned(z + kBig - 1));
  EXPECT_TRUE(poisoned(z + kBig));

  alloc.Deallocate(z, kBig);
  alloc.Deallocate(y, kBig);
#else
  GTEST_SKIP() << "poisoning is only observable in AddressSanitizer builds";
#endif
}

// ---------------------------------------------------------------------------
// PagedArray on an arena.
// ---------------------------------------------------------------------------

TEST(ArenaPagedArrayTest, SharingFaultingAndReclaimWork) {
  PageAllocatorRef alloc = MakeArenaPageAllocator(
      ArenaOptions{.arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
  {
    PagedArray<uint64_t> a(alloc, 4096);
    a.resize(4096);
    for (size_t i = 0; i < a.size(); ++i) a.Mutable(i) = i;
    PagedArray<uint64_t> snap = a;
    EXPECT_EQ(a.SharedPageCount(), a.num_pages());
    a.Mutable(7) = 777;
    EXPECT_EQ(snap[7], 7u);
    EXPECT_EQ(a[7], 777u);
    EXPECT_EQ(alloc->Stats().cow_faults, 1u);
    for (size_t i = 0; i < a.size(); ++i) {
      if (i != 7) {
        ASSERT_EQ(a[i], i);
      }
      ASSERT_EQ(snap[i], i);
    }
  }
  // Everything released: no live pages, mapped bytes only for spares.
  const PageAllocStats s = alloc->Stats();
  EXPECT_EQ(s.page_bytes_live, 0u);
  EXPECT_EQ(s.pages_live(), 0u);
}

// ---------------------------------------------------------------------------
// FrequencyProfile / KeyedProfile parity: arena vs heap backing must be
// observationally identical.
// ---------------------------------------------------------------------------

TEST(ArenaProfileParityTest, FrequencyProfileMatchesHeapBackedTwin) {
  constexpr uint32_t kM = 600;
  constexpr int kOps = 20000;
  FrequencyProfile arena_p(kM, MakeArenaPageAllocator(ArenaOptions{
                                   .arena_bytes = 64 * 1024,
                                   .first_arena_bytes = 64 * 1024}));
  FrequencyProfile heap_p(kM, std::make_shared<HeapPageAllocator>());
  Xoshiro256PlusPlus rng(20260730);
  std::vector<FrequencyProfile> arena_snaps, heap_snaps;
  for (int i = 0; i < kOps; ++i) {
    const uint32_t id = rng.NextBounded(kM);
    const bool add = rng.NextBounded(3) != 0;
    if (add) {
      arena_p.Add(id);
      heap_p.Add(id);
    } else {
      arena_p.Remove(id);
      heap_p.Remove(id);
    }
    if (i % 4096 == 0) {
      arena_snaps.push_back(arena_p.Snapshot());
      heap_snaps.push_back(heap_p.Snapshot());
    }
  }
  ASSERT_EQ(arena_p.Validate().ok(), true) << arena_p.Validate().message();
  EXPECT_EQ(arena_p.ToFrequencies(), heap_p.ToFrequencies());
  EXPECT_EQ(arena_p.Histogram(), heap_p.Histogram());
  for (size_t i = 0; i < arena_snaps.size(); ++i) {
    EXPECT_EQ(arena_snaps[i].ToFrequencies(), heap_snaps[i].ToFrequencies())
        << "snapshot " << i;
  }
}

TEST(ArenaProfileParityTest, KeyedProfileOnArenaMatchesDefault) {
  KeyedProfileOptions arena_opts;
  arena_opts.release_zero_keys = true;
  arena_opts.page_allocator = MakeArenaPageAllocator(ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
  KeyedProfileOptions plain_opts;
  plain_opts.release_zero_keys = true;

  KeyedProfile<std::string> arena_k(arena_opts);
  KeyedProfile<std::string> plain_k(plain_opts);
  ASSERT_EQ(arena_k.profile().page_allocator().get(),
            arena_opts.page_allocator.get());

  Xoshiro256PlusPlus rng(99);
  const std::vector<std::string> keys = {"alpha", "beta",  "gamma", "delta",
                                         "eps",   "zeta",  "eta",   "theta",
                                         "iota",  "kappa", "lam",   "mu"};
  for (int i = 0; i < 30000; ++i) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    if (rng.NextBounded(2) == 0) {
      arena_k.Add(key);
      plain_k.Add(key);
    } else {
      const Status a = arena_k.Remove(key);
      const Status b = plain_k.Remove(key);
      ASSERT_EQ(a.code(), b.code());
    }
  }
  ASSERT_EQ(arena_k.num_keys(), plain_k.num_keys());
  ASSERT_EQ(arena_k.total_count(), plain_k.total_count());
  for (const std::string& key : keys) {
    const auto a = arena_k.Frequency(key);
    const auto b = plain_k.Frequency(key);
    ASSERT_EQ(a.ok(), b.ok()) << key;
    if (a.ok()) {
      ASSERT_EQ(a.value(), b.value()) << key;
    }
  }
  EXPECT_EQ(arena_k.TopK(5), plain_k.TopK(5));
}

// ---------------------------------------------------------------------------
// The reclamation torture tests (ISSUE 4 satellite): rotating historical
// snapshots pin arbitrary pages while the writer churns. Arenas must keep
// coming back — the mapped footprint stays bounded by the rotation depth,
// not the churn length.
// ---------------------------------------------------------------------------

TEST(ArenaReclaimTortureTest, RotatingSnapshotsDoNotPinArenasForever) {
  PageAllocatorRef alloc = MakeArenaPageAllocator(ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024,
      .max_spare_arenas = 0});
  constexpr uint32_t kM = 4096;
  constexpr int kRounds = 400;
  constexpr size_t kPinned = 8;

  FrequencyProfile p(kM, alloc);
  Xoshiro256PlusPlus rng(4242);
  std::deque<FrequencyProfile> pinned;
  for (int r = 0; r < kRounds; ++r) {
    // Churn: enough updates to fault a spread of pages each round.
    for (int i = 0; i < 512; ++i) {
      const uint32_t id = rng.NextBounded(kM);
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
    pinned.push_back(p.Snapshot());
    if (pinned.size() > kPinned) pinned.pop_front();
  }
  const PageAllocStats mid = alloc->Stats();
  // The writer faulted pages every round and every retired snapshot
  // released its pins: whole arenas must have drained along the way.
  EXPECT_GT(mid.cow_faults, 0u);
  EXPECT_GT(mid.arenas_reclaimed, 0u);
  // Live footprint is the live profile + kPinned snapshots' worth of
  // pages, NOT kRounds' worth. Bound it generously: each of the 1 + 8
  // owners can pin at most the whole profile (~tens of pages at m=4096).
  const uint64_t per_owner_pages =
      p.TotalStoragePages() + 4;  // + free-list slack
  EXPECT_LT(mid.pages_live(), (kPinned + 2) * per_owner_pages);

  pinned.clear();
  // With every snapshot retired, the profile can re-enter its flat epoch:
  // displaced fault copies are consolidated into fresh runs and their
  // standalone blocks come home to the allocator.
  EXPECT_TRUE(p.TryReflatten());
  EXPECT_TRUE(p.storage_flat());
  const PageAllocStats end = alloc->Stats();
  // Only the live profile's storage remains.
  EXPECT_LE(end.pages_live(), per_owner_pages);
  EXPECT_GT(end.arenas_reclaimed, mid.arenas_reclaimed - 1);
  // Mapped bytes collapse to the arenas the live profile touches.
  EXPECT_LE(end.arena_bytes_mapped, 16u * 64 * 1024);
}

// The TSan shape: reader threads grab, hold, and drop snapshots while the
// owner churns and publishes. Checks snapshot immutability and that
// reclamation (which runs on whichever thread drops the last page ref)
// is race-free.
TEST(ArenaReclaimTortureTest, ConcurrentSnapshotDropsReclaimSafely) {
  PageAllocatorRef alloc = MakeArenaPageAllocator(ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
  constexpr uint32_t kM = 2048;
  constexpr int kRounds = 120;
  constexpr int kReaders = 3;

  FrequencyProfile p(kM, alloc);

  sprofile::Mutex mu;
  std::shared_ptr<const FrequencyProfile> published;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
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
        // A frozen snapshot: total_count is internally consistent with
        // the frequency sum.
        int64_t sum = 0;
        for (uint32_t id = 0; id < kM; id += 17) sum += snap->Frequency(id);
        acc += static_cast<uint64_t>(sum);
        snap.reset();  // reader-side drop: may reclaim arenas
      }
      (void)acc;
    });
  }

  Xoshiro256PlusPlus rng(77);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 1024; ++i) {
      const uint32_t id = rng.NextBounded(kM);
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
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
  const PageAllocStats s = alloc->Stats();
  EXPECT_LE(s.pages_live(), p.TotalStoragePages() + 4);
}


// ISSUE 10 satellite: an arena mmap failure used to abort the process
// via SPROFILE_CHECK ("arena mmap failed"). It must instead surface as a
// null block — the recoverable rung of the degradation ladder
// (docs/ROBUSTNESS.md) that PagedArray answers with heap-page fallback —
// counted in Stats().alloc_failures, with the allocator fully usable
// again once mappings succeed. The failing-first shape needs the
// injection site compiled in (-DSPROFILE_FAILPOINTS=ON).
#if defined(SPROFILE_FAILPOINTS)
TEST(ArenaPageAllocatorTest, MmapFailureReturnsNullInsteadOfAborting) {
  auto& registry = failpoint::Registry::Global();
  ArenaPageAllocator alloc(ArenaOptions{.first_arena_bytes = 64 * 1024});

  registry.Activate("arena_mmap_fail", failpoint::Trigger::Always());
  void* refused = alloc.Allocate(4096);  // first arena mapping fails
  EXPECT_EQ(refused, nullptr);
  EXPECT_GT(alloc.Stats().alloc_failures, 0u);
  registry.DeactivateAll();

  // Recovered: the refusal left no half-built arena behind, so the next
  // request maps an arena and succeeds.
  void* ok = alloc.Allocate(4096);
  ASSERT_NE(ok, nullptr);
  std::memset(ok, 0xcd, 4096);
  alloc.Deallocate(ok, 4096);
  EXPECT_EQ(alloc.Stats().page_bytes_live, 0u);
}

TEST(ArenaPageAllocatorTest, AllocFailpointRefusesWithoutAborting) {
  auto& registry = failpoint::Registry::Global();
  ArenaPageAllocator alloc(ArenaOptions{.first_arena_bytes = 64 * 1024});
  void* warm = alloc.Allocate(4096);  // arena mapped while healthy
  ASSERT_NE(warm, nullptr);

  registry.Activate("arena_alloc_fail", failpoint::Trigger::Always());
  EXPECT_EQ(alloc.Allocate(4096), nullptr);
  registry.DeactivateAll();

  void* ok = alloc.Allocate(4096);
  ASSERT_NE(ok, nullptr);
  alloc.Deallocate(ok, 4096);
  alloc.Deallocate(warm, 4096);
}
#endif  // SPROFILE_FAILPOINTS

}  // namespace
}  // namespace cow
}  // namespace sprofile
