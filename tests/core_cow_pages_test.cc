// PagedArray — the copy-on-write page layer under FrequencyProfile.
// Exercises sharing/fault/release mechanics directly; run under ASan in CI
// (refcounted manual memory is exactly where ASan earns its keep) and the
// concurrent case under TSan.

#include "core/cow_pages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace sprofile {
namespace cow {
namespace {

using Array = PagedArray<uint32_t>;

constexpr size_t kElems = Array::kPageElems;

TEST(CowPagedArrayTest, ResizeValueInitializes) {
  Array a(3 * kElems + 7);
  EXPECT_EQ(a.size(), 3 * kElems + 7);
  EXPECT_EQ(a.num_pages(), 4u);
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 0u) << i;
}

TEST(CowPagedArrayTest, MutableWritesReadBack) {
  Array a(2 * kElems);
  for (size_t i = 0; i < a.size(); ++i) a.Mutable(i) = static_cast<uint32_t>(i);
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i) << i;
}

TEST(CowPagedArrayTest, CopySharesEveryPage) {
  Array a(4 * kElems);
  for (size_t i = 0; i < a.size(); ++i) a.Mutable(i) = static_cast<uint32_t>(i);
  const Array snap = a;
  EXPECT_EQ(a.SharedPageCount(), a.num_pages());
  EXPECT_EQ(snap.SharedPageCount(), snap.num_pages());
}

TEST(CowPagedArrayTest, WriteFaultsExactlyOnePage) {
  Array a(4 * kElems);
  const Array snap = a;
  ASSERT_EQ(a.SharedPageCount(), 4u);

  a.Mutable(2 * kElems + 1) = 99;  // third page
  EXPECT_EQ(a.SharedPageCount(), 3u) << "only the touched page un-shares";
  EXPECT_EQ(a[2 * kElems + 1], 99u);
  EXPECT_EQ(snap[2 * kElems + 1], 0u) << "snapshot stays frozen";

  a.Mutable(2 * kElems + 2) = 100;  // same page: no further fault
  EXPECT_EQ(a.SharedPageCount(), 3u);
}

TEST(CowPagedArrayTest, SnapshotOfSnapshotChains) {
  Array a(kElems);
  a.Mutable(0) = 1;
  const Array s1 = a;
  a.Mutable(0) = 2;
  const Array s2 = a;
  a.Mutable(0) = 3;
  EXPECT_EQ(s1[0], 1u);
  EXPECT_EQ(s2[0], 2u);
  EXPECT_EQ(a[0], 3u);
}

TEST(CowPagedArrayTest, DeepCloneSharesNothing) {
  Array a(2 * kElems);
  a.Mutable(5) = 42;
  Array clone = a.DeepClone();
  EXPECT_EQ(a.SharedPageCount(), 0u);
  EXPECT_EQ(clone.SharedPageCount(), 0u);
  clone.Mutable(5) = 7;
  EXPECT_EQ(a[5], 42u);
  EXPECT_EQ(clone[5], 7u);
}

TEST(CowPagedArrayTest, PushBackGrowsAcrossPageBoundary) {
  Array a;
  for (size_t i = 0; i < kElems + 3; ++i) a.push_back(static_cast<uint32_t>(i));
  EXPECT_EQ(a.size(), kElems + 3);
  EXPECT_EQ(a.num_pages(), 2u);
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i) << i;
}

TEST(CowPagedArrayTest, PushBackAfterShareFaultsNotCorrupts) {
  Array a(3);
  a.Mutable(0) = 10;
  const Array snap = a;
  a.push_back(11);  // same page as snap's elements: must fault, not write through
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(a[3], 11u);
  EXPECT_EQ(snap[0], 10u);
  EXPECT_EQ(a.SharedPageCount(), 0u);
}

TEST(CowPagedArrayTest, ShrinkThenGrowReZeroesReusedCells) {
  Array a(10);
  for (size_t i = 0; i < 10; ++i) a.Mutable(i) = 7;
  a.resize(4);
  a.resize(10);
  for (size_t i = 0; i < 4; ++i) ASSERT_EQ(a[i], 7u) << i;
  for (size_t i = 4; i < 10; ++i) ASSERT_EQ(a[i], 0u) << i;
}

TEST(CowPagedArrayTest, ShrinkReleasesWholePages) {
  Array a(4 * kElems);
  EXPECT_EQ(a.num_pages(), 4u);
  a.resize(kElems);
  EXPECT_EQ(a.num_pages(), 1u);
  a.resize(0);
  EXPECT_EQ(a.num_pages(), 0u);
}

TEST(CowPagedArrayTest, MoveTransfersOwnership) {
  Array a(kElems);
  a.Mutable(1) = 5;
  Array b = std::move(a);
  EXPECT_EQ(b.size(), kElems);
  EXPECT_EQ(b[1], 5u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  a = std::move(b);
  EXPECT_EQ(a[1], 5u);
}

TEST(CowPagedArrayTest, CopyAssignReleasesOldPages) {
  Array a(2 * kElems);
  a.Mutable(0) = 1;
  Array b(kElems);
  b.Mutable(0) = 2;
  b = a;  // old pages of b must be freed (ASan checks), pages of a shared
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b.size(), 2 * kElems);
  EXPECT_EQ(a.SharedPageCount(), a.num_pages());
}

TEST(CowPagedArrayTest, ClearDropsReferencesNotSnapshots) {
  Array a(kElems);
  a.Mutable(0) = 9;
  const Array snap = a;
  a.clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(snap[0], 9u) << "snapshot keeps the page alive";
}

TEST(CowPagedArrayTest, InjectedAllocatorBacksEveryPageAndCountsFaults) {
  auto alloc = std::make_shared<HeapPageAllocator>();
  {
    PagedArray<uint32_t> a(alloc, 3 * kElems);
    a.resize(3 * kElems);
    EXPECT_EQ(a.page_allocator().get(), alloc.get());
    EXPECT_GT(a.num_pages(), 1u);
    EXPECT_EQ(alloc->Stats().pages_allocated, 1u)
        << "every page sits in one home run block";
    const PagedArray<uint32_t> snap = a;
    a.Mutable(0) = 1;  // faults page 0
    a.Mutable(1) = 2;  // same page: no second fault
    EXPECT_EQ(alloc->Stats().cow_faults, 1u);
    EXPECT_EQ(snap.page_allocator().get(), alloc.get())
        << "snapshots share the allocator";
  }
  EXPECT_EQ(alloc->Stats().page_bytes_live, 0u) << "all pages returned";
  EXPECT_EQ(alloc->Stats().pages_allocated, alloc->Stats().pages_freed);
}

TEST(CowPagedArrayTest, CapacityHintShrinksPagesForSmallArrays) {
  PagedArray<uint64_t> small(PageAllocatorRef(), 10);
  small.resize(10);
  EXPECT_EQ(small.elems_per_page(), kMinPageElems);
  EXPECT_EQ(small.num_pages(), 1u);
  // Geometry is fixed at construction: growing past the hint just adds
  // (small) pages.
  small.resize(5 * kMinPageElems);
  EXPECT_EQ(small.num_pages(), 5u);
  for (size_t i = 0; i < small.size(); ++i) ASSERT_EQ(small[i], 0u);
}

TEST(CowPagedArrayTest, LargeArraysScalePagesUpKeepingTableSmall) {
  constexpr uint64_t kHint = 1u << 20;
  PagedArray<uint64_t> big(PageAllocatorRef(), kHint);
  // The page table stays near kTargetPageTableEntries entries...
  const size_t pages_at_hint = kHint / big.elems_per_page();
  EXPECT_LE(pages_at_hint, 2 * kTargetPageTableEntries);
  // ...and a single COW fault never copies more than the payload cap.
  EXPECT_LE(big.elems_per_page() * sizeof(uint64_t), kMaxPagePayloadBytes);
  // Geometry still works end to end.
  big.resize(3 * big.elems_per_page() + 5);
  for (size_t i = 0; i < big.size(); i += 7) big.Mutable(i) = i;
  const PagedArray<uint64_t> snap = big;
  big.Mutable(0) = 12345;
  EXPECT_EQ(snap[0], 0u);
  EXPECT_EQ(big[7], 7u);
}

// The engine's exact shape: one owner thread keeps writing while reader
// threads query and drop snapshots. TSan-gated in CI; here it also checks
// that every snapshot observes exactly the state at its creation.
TEST(CowPagedArrayTest, ConcurrentSnapshotReadersSeeFrozenState) {
  constexpr size_t kN = 2048;
  constexpr int kRounds = 200;
  Array a(kN);

  std::atomic<bool> stop{false};
  std::vector<std::pair<uint32_t, Array>> published;  // (round, snapshot)
  sprofile::Mutex mu;

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Array snap;
      uint32_t round = 0;
      {
        sprofile::MutexLock lock(mu);
        if (published.empty()) continue;
        round = published.back().first;
        // Reader-side re-share is safe: any page reachable from a
        // snapshot has a reference the owner does not hold, so the
        // owner's refcount==1 exclusivity check cannot race with this
        // increment.
        snap = published.back().second;
      }
      // A snapshot is internally consistent: every element equals `round`.
      for (size_t i = 0; i < snap.size(); i += 97) {
        ASSERT_EQ(snap[i], round) << "i=" << i;
      }
    }
  });

  for (int r = 1; r <= kRounds; ++r) {
    for (size_t i = 0; i < kN; ++i) a.Mutable(i) = static_cast<uint32_t>(r);
    {
      sprofile::MutexLock lock(mu);
      published.emplace_back(static_cast<uint32_t>(r), a);  // owner-side share
      if (published.size() > 4) published.erase(published.begin());
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}


// The degradation ladder's first rung (docs/ROBUSTNESS.md), exercised
// WITHOUT failpoints: a primary allocator that refuses requests must not
// sink the array — refused blocks come from the process heap instead,
// values stay exact, and every block frees back to the allocator that
// actually produced it (the per-block source routing).
class FlakyAllocator final : public PageAllocator {
 public:
  /// Refuses every `refuse_every`-th request; serves the rest from an
  /// inner heap allocator whose books must balance at teardown.
  explicit FlakyAllocator(uint64_t refuse_every)
      : refuse_every_(refuse_every) {}

  void* Allocate(size_t bytes) override {
    if (++calls_ % refuse_every_ == 0) {
      ++refusals_;
      return nullptr;
    }
    return inner_.Allocate(bytes);
  }
  void Deallocate(void* block, size_t bytes) noexcept override {
    inner_.Deallocate(block, bytes);
  }
  PageAllocStats Stats() const override { return inner_.Stats(); }

  uint64_t refusals() const { return refusals_; }

 private:
  const uint64_t refuse_every_;
  uint64_t calls_ = 0;
  uint64_t refusals_ = 0;
  HeapPageAllocator inner_;
};

TEST(CowDegradationTest, TotalRefusalFallsBackToHeapPages) {
  auto refusing = std::make_shared<FlakyAllocator>(/*refuse_every=*/1);
  {
    PagedArray<uint32_t> a(refusing, 2 * kElems);
    a.resize(2 * kElems);
    for (size_t i = 0; i < a.size(); ++i) {
      a.Mutable(i) = static_cast<uint32_t>(i);
    }
    const PagedArray<uint32_t> snap = a;
    a.Mutable(0) = 777;  // fault copy also lands on the fallback
    for (size_t i = 1; i < a.size(); ++i) ASSERT_EQ(a[i], i) << i;
    EXPECT_EQ(snap[0], 0u) << "snapshot stays frozen across the fallback";
    EXPECT_GT(refusing->refusals(), 0u);
    EXPECT_EQ(refusing->Stats().pages_allocated, 0u)
        << "the refusing primary never produced a block";
  }
  // Teardown freed heap-fallback blocks to the heap, not to the primary.
  EXPECT_EQ(refusing->Stats().pages_freed, 0u);
}

TEST(CowDegradationTest, MixedSourcesFreeToTheirOwnAllocator) {
  auto flaky = std::make_shared<FlakyAllocator>(/*refuse_every=*/3);
  {
    PagedArray<uint32_t> a(flaky, 4 * kElems);
    a.resize(4 * kElems);
    for (size_t i = 0; i < a.size(); ++i) {
      a.Mutable(i) = static_cast<uint32_t>(i * 3);
    }
    // Churn both block shapes: snapshot + scattered writes produce
    // standalone fault copies alongside the home runs.
    const PagedArray<uint32_t> snap = a;
    for (size_t i = 0; i < a.size(); i += kElems) a.Mutable(i) = 1;
    for (size_t i = 0; i < a.size(); ++i) {
      if (i % kElems == 0) {
        ASSERT_EQ(a[i], 1u) << i;
      } else {
        ASSERT_EQ(a[i], i * 3) << i;
      }
    }
    EXPECT_GT(flaky->refusals(), 0u);
    EXPECT_GT(flaky->Stats().pages_allocated, 0u)
        << "the test needs BOTH sources in play";
  }
  // Every block the flaky primary produced came back to it — a heap
  // block routed here (or vice versa) would unbalance the books (and
  // trip ASan on the mismatched free).
  const PageAllocStats s = flaky->Stats();
  EXPECT_EQ(s.pages_allocated, s.pages_freed);
  EXPECT_EQ(s.page_bytes_live, 0u);
}

}  // namespace
}  // namespace cow
}  // namespace sprofile
