// Copy-on-write paged storage — the page layer under FrequencyProfile.
//
// A PagedArray<T> is a flat array split into fixed-size pages. Pages are
// refcounted: copying a PagedArray shares every page and costs O(#pages)
// pointer grabs + refcount bumps, NOT O(n). The first write to a shared
// page copy-on-write *faults* it — copies just that page — so an owner
// that keeps mutating after handing out a snapshot pays one bounded page
// copy per distinct page touched, amortized O(1) per update (cf. the
// amortized-resizing discipline of Tarjan & Zwick, "Optimal resizable
// arrays").
//
// This is what turns FrequencyProfile::Snapshot() into an O(#pages)
// operation and bounds the engine's snapshot-publish pause (previously an
// O(m) stop-the-shard clone; see docs/ENGINE.md).
//
// THE EXCLUSIVE-EPOCH FLAT VIEW. A PagedArray lays its pages out in
// *runs*: one block whose
// page payloads are carved ADJACENTLY, so when the array owns every page
// exclusively and each sits in its home run slot — the common steady
// state between snapshot publications — element i lives at a fixed
// offset from one base pointer and the page-table indirection vanishes
// from the update path entirely (flat_data() + EnsureFlat() below; the
// FrequencyProfile update kernel is instantiated over this view).
// Snapshot() flips the array back to paged/COW mode. Each post-publish
// fault copies to a standalone block. Once any page is displaced (faulted,
// or grown past the run) there is one way back to the flat view:
// Consolidate() copies every page into a fresh run — with doubled
// headroom after growth, so amortized O(1) per appended element.
// EnsureFlat() takes it once no snapshot shares a page; ForceFlat() takes
// it at once, copying still-shared pages as it reads them (a shared page
// is immutable; the array only drops its reference).
//
// Storage comes from an injectable PageAllocator. Every block is one
// allocation, so a run is a run on any allocator — the layout above is
// the only one, in every build:
//   - HeapPageAllocator: one aligned operator-new block per request. The
//     default for small arrays, and the degradation rung under a refusing
//     primary allocator.
//   - cow::ArenaPageAllocator (core/page_arena.h): blocks carved out of
//     madvise(MADV_HUGEPAGE) arenas, poisoned for ASan while free or
//     uncarved.
// Every PagedArray holds a shared reference to its allocator, so pages
// can be released from any thread that drops a snapshot: the allocator
// outlives every page it handed out.
//
// Page geometry is chosen per array (AdaptivePageElems): elements per
// page are capped so the COW fault tax — one page copy — scales with the
// element width instead of a fixed 4 KiB, and small arrays get small
// pages. Geometry is fixed at construction and shared by every snapshot
// of the array (pages are exchanged between them).
//
// Concurrency contract (exactly the engine's shape):
//   - ONE writer thread owns a given PagedArray and calls the mutating API
//     (EnsureFlat() included). Copying FROM an array (taking a snapshot)
//     is also an owner-side operation: it clears the source's exclusivity
//     cache (below), so it must run on the owner thread or under external
//     synchronization.
//   - Snapshots (copies) may be read — and dropped — from any number of
//     other threads concurrently with the owner's writes.
//   - Safety argument: a writer only stores into a page whose refcount it
//     observed as 1 with an acquire load. Readers can never revive a page
//     they don't already reference (only the owner creates references), so
//     refcount 1 means exclusive; the acquire pairs with the release
//     fetch_sub of a reader dropping its snapshot, ordering the reader's
//     page reads before the writer's stores. Shared pages are never
//     written — the writer copies them first. Growth refills a HOME slot
//     only after observing its refcount at 0 (acquire), which orders the
//     last reader's accesses before the owner's fill.
//   - The per-page "known exclusive" tag (bit 0 of the owner's page-table
//     entry) is a pure owner-private cache of "refcount was 1 and no share
//     happened since": refcounts only decrease while the tag is set, so
//     the fast write path may skip the control-block load without ever
//     writing a page a snapshot still references.
//
// Pages are stable in memory while no snapshot interleaves: growing the
// array never moves existing pages, so references returned by
// Mutable()/operator[] survive push_back. They do NOT survive a fault of
// the same page or an EnsureFlat() — don't hold references across other
// mutating calls; copy values out instead.

#ifndef SPROFILE_CORE_COW_PAGES_H_
#define SPROFILE_CORE_COW_PAGES_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace sprofile {
namespace cow {

/// Target payload bytes per page for 8-byte elements (the RankSlot hot
/// array): the baseline of the adaptive geometry below.
inline constexpr size_t kPageBytes = 4096;

/// Elements-per-page bounds for AdaptivePageElems. The cap keeps the COW
/// fault tax (one page copy) proportional to the element width — a 4-byte
/// permutation entry should not drag a 4 KiB copy behind every
/// post-publish fault; the floor keeps tiny arrays from degenerating into
/// one page per handful of elements.
inline constexpr size_t kMaxPageElems = 512;
inline constexpr size_t kMinPageElems = 64;

/// Large-array geometry targets (see AdaptivePageElems): keep the page
/// table at about this many entries, and never let one COW fault copy
/// more than this much payload.
inline constexpr size_t kTargetPageTableEntries = 512;
inline constexpr size_t kMaxPagePayloadBytes = 64 * 1024;

/// Page geometry for an array of `elem_size`-byte elements expected to
/// hold about `capacity_hint` of them (0 = unknown). Always a power of
/// two, always >= 1:
///   - at most kPageBytes of payload (so a page of 8-byte elements is the
///     classic 4 KiB),
///   - at most kMaxPageElems (so the fault-copy cost scales with element
///     width, not a fixed 4 KiB),
///   - shrunk toward the hint for small arrays (a 100-element array gets
///     one sub-KiB page, not a 4 KiB one), floored at kMinPageElems.
constexpr size_t AdaptivePageElems(size_t elem_size, uint64_t capacity_hint) {
  const size_t per_target =
      std::bit_floor(std::max<size_t>(kPageBytes / std::max<size_t>(elem_size, 1),
                                      size_t{1}));
  size_t elems = std::min(per_target, kMaxPageElems);
  if (capacity_hint > 0 && capacity_hint < elems) {
    const size_t fit = std::bit_ceil(static_cast<size_t>(capacity_hint));
    elems = std::max(fit, std::min(elems, kMinPageElems));
  } else if (capacity_hint > (kTargetPageTableEntries <<
                              std::countr_zero(elems))) {
    // Large arrays scale the page UP so the page table stays ~L1-resident
    // (kTargetPageTableEntries entries): every access chains through the
    // table, and a table that spills to L2/L3 taxes each of the ~dozen
    // storage touches per S-Profile update. Fault copies grow with the
    // page, but the payload cap keeps each COW fault bounded.
    const size_t scaled = std::bit_ceil(
        static_cast<size_t>(capacity_hint / kTargetPageTableEntries));
    const size_t payload_cap = std::max<size_t>(
        std::bit_floor(kMaxPagePayloadBytes / std::max<size_t>(elem_size, 1)),
        size_t{1});
    elems = std::min(scaled, payload_cap);
  }
  return std::max<size_t>(elems, 1);
}

/// Allocator counters, readable from any thread (Stats() below). Plain
/// struct: a snapshot, not the live atomics.
struct PageAllocStats {
  uint64_t pages_allocated = 0;   ///< blocks handed out, cumulative (a run
                                  ///< of many pages is ONE block)
  uint64_t pages_freed = 0;       ///< blocks returned, cumulative
  uint64_t page_bytes_live = 0;   ///< bytes of blocks currently out
  uint64_t cow_faults = 0;        ///< COW page copies (PagedArray reports)
  uint64_t arenas_created = 0;    ///< arena mappings created (arena only)
  uint64_t arenas_reclaimed = 0;  ///< fully drained arenas returned to the OS
  uint64_t arenas_live = 0;       ///< mappings currently held (incl. warm spares)
  uint64_t hugepage_arenas = 0;   ///< live mappings flagged MADV_HUGEPAGE (gauge)
  uint64_t arena_bytes_mapped = 0;///< bytes currently mmap-reserved (incl. spares)
  uint64_t alloc_failures = 0;    ///< requests refused (null return; arena only)

  uint64_t pages_live() const { return pages_allocated - pages_freed; }

  PageAllocStats& Accumulate(const PageAllocStats& o) {
    pages_allocated += o.pages_allocated;
    pages_freed += o.pages_freed;
    page_bytes_live += o.page_bytes_live;
    cow_faults += o.cow_faults;
    arenas_created += o.arenas_created;
    arenas_reclaimed += o.arenas_reclaimed;
    arenas_live += o.arenas_live;
    hugepage_arenas += o.hugepage_arenas;
    arena_bytes_mapped += o.arena_bytes_mapped;
    alloc_failures += o.alloc_failures;
    return *this;
  }
};

/// Where PagedArray blocks come from. Implementations must be thread-safe:
/// Allocate runs on whichever thread owns the allocating array (usually
/// one writer, but independent profiles may share an allocator), and
/// Deallocate runs on ANY thread that drops the last reference to a page
/// — including snapshot readers retiring an engine snapshot.
///
/// Returned blocks are at least 64-byte aligned (page payloads must tile
/// cache lines) and at least `bytes` long.
class PageAllocator {
 public:
  virtual ~PageAllocator() = default;

  /// May return null when the backing store is exhausted but the failure
  /// is recoverable (ArenaPageAllocator on mmap failure); PagedArray then
  /// falls back to heap pages (the degradation ladder, docs/ROBUSTNESS.md).
  /// Unrecoverable exhaustion (operator new) throws bad_alloc instead.
  virtual void* Allocate(size_t bytes) = 0;
  virtual void Deallocate(void* block, size_t bytes) noexcept = 0;

  /// Counter snapshot (cross-thread safe; values are individually atomic,
  /// not a consistent cut).
  virtual PageAllocStats Stats() const = 0;

  /// PagedArray reports each COW page fault here so MemoryStats can
  /// surface the post-publish write tax.
  /// orders: relaxed — a statistics counter; no data is published through
  /// it and readers (Stats) tolerate arbitrarily stale values.
  void CountFault() { cow_faults_.fetch_add(1, std::memory_order_relaxed); }

 protected:
  // orders: relaxed — pairs with CountFault's relaxed increments; counts
  // may lag concurrent faults, which Stats documents as approximate.
  uint64_t FaultCount() const {
    return cow_faults_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> cow_faults_{0};
};

using PageAllocatorRef = std::shared_ptr<PageAllocator>;

/// One aligned operator-new block per request (a whole run, or one
/// standalone page). Thread-safe (the system allocator is).
class HeapPageAllocator final : public PageAllocator {
 public:
  void* Allocate(size_t bytes) override {
    // The bottom of the degradation ladder: heap exhaustion is
    // unrecoverable for the allocator, so the injected failure is the
    // real one — bad_alloc, which the engine worker catches and answers
    // with shard quarantine.
    if (SPROFILE_FAILPOINT("heap_page_alloc_fail")) throw std::bad_alloc();
    // orders: relaxed — statistics only; the page pointer handoff itself
    // synchronizes any content the caller publishes.
    pages_allocated_.fetch_add(1, std::memory_order_relaxed);
    bytes_live_.fetch_add(bytes, std::memory_order_relaxed);
    return ::operator new(bytes, std::align_val_t{64});
  }

  void Deallocate(void* block, size_t bytes) noexcept override {
    // orders: relaxed — statistics only, as in Allocate.
    pages_freed_.fetch_add(1, std::memory_order_relaxed);
    bytes_live_.fetch_sub(bytes, std::memory_order_relaxed);
    ::operator delete(block, std::align_val_t{64});
  }

  PageAllocStats Stats() const override {
    PageAllocStats s;
    // orders: relaxed — pairs with the relaxed counter updates above;
    // Stats is documented as a racy point-in-time read.
    s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
    s.pages_freed = pages_freed_.load(std::memory_order_relaxed);
    s.page_bytes_live = bytes_live_.load(std::memory_order_relaxed);
    s.cow_faults = FaultCount();
    return s;
  }

 private:
  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint64_t> pages_freed_{0};
  std::atomic<uint64_t> bytes_live_{0};
};

/// Process-wide heap allocator: the backing store for default-constructed
/// PagedArrays and small profiles, where per-profile arenas would cost
/// more in mappings than they save in locality.
inline const PageAllocatorRef& GlobalHeapPageAllocator() {
  static const PageAllocatorRef global = std::make_shared<HeapPageAllocator>();
  return global;
}

namespace internal {

/// Header at offset 0 of a run block: pages of the run die individually
/// (refcounts), the BLOCK goes back to the allocator when the last page —
/// and the owning array's anchor — let go.
struct RunHeader {
  std::atomic<uint64_t> live{0};  ///< active pages + the owner's anchor
  size_t block_bytes = 0;         ///< Deallocate size (block starts at this)
  /// Allocator the block actually came from when it is NOT the owning
  /// array's (heap fallback after the primary refused); null = the
  /// array's own. Raw pointer is safe: the only non-null value is the
  /// process-static GlobalHeapPageAllocator.
  PageAllocator* source = nullptr;
};

/// Per-page control block: the refcount that used to ride behind each
/// payload, moved out of line so run payloads can sit ADJACENTLY (the
/// whole point of the flat view). Lives either in a run's control strip
/// or at the head of a standalone single-page block (run == nullptr, the
/// block then starts at the control itself).
struct PageCtrl {
  std::atomic<uint32_t> refs{0};
  RunHeader* run = nullptr;  ///< owning run; null = standalone block
  /// Fallback source of a standalone block (see RunHeader::source);
  /// null = the array's own allocator. Unused for run pages (the run
  /// header carries the block's source).
  PageAllocator* source = nullptr;
};

static_assert(sizeof(RunHeader) <= 64, "run header must fit its prelude");
static_assert(sizeof(PageCtrl) <= 64, "page ctrl must fit a prelude");

}  // namespace internal

template <typename T>
class PagedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PagedArray pages are shared across threads and copied with "
                "memcpy; T must be trivially copyable");
  static_assert(alignof(T) <= 64, "payloads are 64-byte aligned");

 public:
  /// Default elements per page for a T array with no capacity hint (the
  /// geometry of default-constructed arrays; kept as a constant for tests
  /// and back-of-envelope math).
  static constexpr size_t kPageElems = AdaptivePageElems(sizeof(T), 0);

  /// Heap-backed, default geometry.
  PagedArray() : PagedArray(PageAllocatorRef(), 0) {}

  /// Heap-backed, geometry adapted to n, sized to n.
  explicit PagedArray(size_t n) : PagedArray(PageAllocatorRef(), n) {
    resize(n);
  }

  /// The fully injected form: pages from `alloc` (null = process heap),
  /// geometry adapted to `capacity_hint` elements (0 = default). The
  /// array starts empty; geometry is fixed for the array's lifetime and
  /// inherited by every snapshot.
  PagedArray(PageAllocatorRef alloc, uint64_t capacity_hint)
      : alloc_(alloc ? std::move(alloc) : GlobalHeapPageAllocator()) {
    SetGeometry(AdaptivePageElems(sizeof(T), capacity_hint));
  }

  /// Copying SHARES pages: O(#pages). Use DeepClone() for an independent
  /// copy. This is the snapshot primitive. The copy adopts the source's
  /// allocator and geometry (they co-own the same pages); it has no home
  /// run of its own until it consolidates one via EnsureFlat().
  PagedArray(const PagedArray& other) : alloc_(other.alloc_) {
    AdoptGeometry(other);
    ShareFrom(other);
  }
  PagedArray& operator=(const PagedArray& other) {
    if (this != &other) {
      Release();
      alloc_ = other.alloc_;
      AdoptGeometry(other);
      ShareFrom(other);
    }
    return *this;
  }

  PagedArray(PagedArray&& other) noexcept
      : alloc_(std::move(other.alloc_)),
        pages_(std::move(other.pages_)),
        ctrls_(std::move(other.ctrls_)),
        size_(other.size_),
        run_(other.run_),
        run_ctrls_(other.run_ctrls_),
        run_base_(other.run_base_),
        run_capacity_(other.run_capacity_),
        flat_(other.flat_) {
    AdoptGeometry(other);
    other.alloc_ = GlobalHeapPageAllocator();
    other.ResetToEmpty();
  }
  PagedArray& operator=(PagedArray&& other) noexcept {
    if (this != &other) {
      Release();
      alloc_ = std::move(other.alloc_);
      AdoptGeometry(other);
      pages_ = std::move(other.pages_);
      ctrls_ = std::move(other.ctrls_);
      size_ = other.size_;
      run_ = other.run_;
      run_ctrls_ = other.run_ctrls_;
      run_base_ = other.run_base_;
      run_capacity_ = other.run_capacity_;
      flat_ = other.flat_;
      other.alloc_ = GlobalHeapPageAllocator();
      other.ResetToEmpty();
    }
    return *this;
  }

  ~PagedArray() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Read access. Never faults; safe concurrently with other readers and
  /// with the owner writing OTHER arrays (see the concurrency contract).
  const T& operator[](size_t i) const {
    SPROFILE_DCHECK(i < size_);
    return PageAt(i >> page_shift_)[i & page_mask_];
  }

  /// Write access: copy-on-write faults the covering page if any snapshot
  /// still shares it, then returns a reference into the (now exclusive)
  /// page. Owner thread only.
  ///
  /// Hot path: pages this array KNOWS it owns exclusively skip the
  /// control-block load — touching it would cost a second cache line per
  /// write, which measurably taxes the S-Profile update loop. The
  /// known-exclusive marker is the LOW BIT of the page-table entry itself
  /// (pages are 64-aligned, so the bit is free): one load, one test. The
  /// slow path re-checks the refcount, faults if the page is still
  /// shared, and re-arms the tag.
  T& Mutable(size_t i) {
    SPROFILE_DCHECK(i < size_);
    const size_t page_index = i >> page_shift_;
    const uintptr_t tagged = pages_[page_index];
    if (tagged & kExclusiveTag) [[likely]] {
      return reinterpret_cast<T*>(tagged & ~kExclusiveTag)[i & page_mask_];
    }
    EnsureWritable(page_index, i & page_mask_);
    return PageAt(page_index)[i & page_mask_];
  }

  /// Grows with value-initialized elements / shrinks, like vector::resize.
  /// Growth never moves existing pages.
  void resize(size_t n) {
    const size_t old_size = size_;
    const size_t old_pages = pages_.size();
    const size_t want = PageCountFor(n);
    if (want > old_pages) {
      if (old_pages == 0) MaybeCreateHomeRun(want);
      pages_.reserve(want);
      ctrls_.reserve(want);
      while (pages_.size() < want) AppendPage(nullptr);
    } else if (want < old_pages) {
      for (size_t p = want; p < old_pages; ++p) UnrefPage(ctrls_[p]);
      pages_.resize(want);
      ctrls_.resize(want);
    }
    size_ = n;
    if (n > old_size) {
      // Freshly allocated pages are born zeroed; only reused tail cells of
      // a page that previously held live elements need re-zeroing.
      const size_t reused_end = std::min(n, old_pages << page_shift_);
      if (reused_end > old_size) ZeroRange(old_size, reused_end);
    }
  }

  void push_back(const T& value) {
    const size_t i = size_;
    if (PageCountFor(i + 1) > pages_.size()) AppendPage(nullptr);
    ++size_;
    Mutable(i) = value;
  }

  void clear() {
    Release();
    size_ = 0;
  }

  /// Pre-sizes the page TABLE and carves the home run for n elements up
  /// front so growth stays flat.
  void reserve(size_t n) {
    pages_.reserve(PageCountFor(n));
    ctrls_.reserve(PageCountFor(n));
    if (pages_.empty()) MaybeCreateHomeRun(PageCountFor(n));
  }

  /// An independent deep copy: O(n) page copies, shares nothing. Pages
  /// come from the same allocator; the clone is born flat (one contiguous
  /// run).
  PagedArray DeepClone() const {
    PagedArray out(alloc_, 0);
    out.SetGeometry(page_elems_);
    out.MaybeCreateHomeRun(pages_.size());
    out.pages_.reserve(pages_.size());
    out.ctrls_.reserve(pages_.size());
    for (size_t p = 0; p < pages_.size(); ++p) out.AppendPage(PageAt(p));
    out.size_ = size_;
    return out;
  }

  // -----------------------------------------------------------------------
  // The exclusive-epoch flat view.
  // -----------------------------------------------------------------------

  /// True when every page is exclusive AND home-resident in one run:
  /// element i lives at flat_data()[i]. Owner-private; any Snapshot(),
  /// fault, or growth past the run clears it.
  bool flat() const { return flat_; }

  /// Base pointer of the flat view; element i at flat_data()[i] while
  /// flat() holds. Null before the first run exists.
  T* flat_data() { return run_base_; }
  const T* flat_data() const { return run_base_; }

  /// Attempts to (re-)enter the flat epoch. Owner thread only.
  ///
  /// Fails at the first page a snapshot still shares. Once every page is
  /// exclusive, pages that all sit in their home run slots are re-tagged
  /// in place; otherwise (fault copies, growth past the run, or a run-less
  /// copy) the array consolidates into a fresh run. Returns flat().
  bool EnsureFlat() {
    if (flat_) return true;
    if (pages_.empty()) {
      flat_ = true;
      return true;
    }
    bool home = run_ != nullptr && pages_.size() <= run_capacity_;
    for (size_t p = 0; p < pages_.size(); ++p) {
      // orders: acquire pairs with UnrefPage's release fetch_sub, so
      // observing refs == 1 also orders us after every released
      // co-owner's reads — the page is safe to mutate in place.
      if (ctrls_[p]->refs.load(std::memory_order_acquire) != 1) return false;
      home = home && ctrls_[p] == &run_ctrls_[p];
    }
    if (!home) return Consolidate();
    for (uintptr_t& entry : pages_) entry |= kExclusiveTag;
    flat_ = true;
    return true;
  }

  /// EnsureFlat's forcing sibling for write-hot arrays pinned by a
  /// long-lived snapshot: consolidates into a fresh private run right
  /// away, copying pages the snapshot still shares as it reads them. The
  /// snapshot keeps its pages untouched. Costs one full-array copy, so
  /// callers gate it on accumulated paged-path work (an engine worker
  /// stuck behind a retained snapshot, for example); a sporadic writer
  /// should keep polling plain EnsureFlat instead. Returns flat().
  bool ForceFlat() { return EnsureFlat() || Consolidate(); }

  // -----------------------------------------------------------------------
  // Introspection (tests, MemoryBytes, bench assertions).
  // -----------------------------------------------------------------------

  size_t num_pages() const { return pages_.size(); }

  /// Elements per page of THIS array (geometry may differ from the static
  /// default when a capacity hint shrank it).
  size_t elems_per_page() const { return page_elems_; }

  /// The allocator this array's pages come from (never null).
  const PageAllocatorRef& page_allocator() const { return alloc_; }

  /// Pages still co-owned by at least one other PagedArray (snapshots).
  size_t SharedPageCount() const {
    size_t shared = 0;
    for (size_t p = 0; p < pages_.size(); ++p) {
      // orders: relaxed — introspective count; a stale value only skews a
      // statistic, never a reclamation decision (EnsureFlat re-checks with
      // acquire before acting).
      if (ctrls_[p]->refs.load(std::memory_order_relaxed) > 1) ++shared;
    }
    return shared;
  }

  /// Pages living outside their home run slot (fault copies + growth
  /// overflow); any of them makes EnsureFlat consolidate. 0 while flat.
  size_t DisplacedPageCount() const {
    if (run_ == nullptr) return pages_.size();
    size_t displaced = 0;
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (p >= run_capacity_ || ctrls_[p] != &run_ctrls_[p]) ++displaced;
    }
    return displaced;
  }

  /// Heap bytes held via this array. Shared pages are counted in full on
  /// every co-owner (no amortization across snapshots).
  size_t MemoryBytes() const {
    size_t bytes = pages_.capacity() * sizeof(uintptr_t) +
                   ctrls_.capacity() * sizeof(internal::PageCtrl*);
    if (run_ != nullptr) bytes += run_->block_bytes;
    for (size_t p = 0; p < pages_.size(); ++p) {
      const internal::PageCtrl* c = ctrls_[p];
      if (c->run == nullptr) {
        bytes += kBlockPrelude + payload_bytes_;
      } else if (c->run != run_) {
        // A page borrowed from another array's run (we are a snapshot):
        // charge the payload; the run overhead is the owner's.
        bytes += payload_bytes_;
      }
    }
    return bytes;
  }

 private:
  using RunHeader = internal::RunHeader;
  using PageCtrl = internal::PageCtrl;

  /// One cache line at the head of every block: the RunHeader of a run
  /// block, or the PageCtrl of a standalone page block. Keeps payloads
  /// 64-aligned either way.
  static constexpr size_t kBlockPrelude = 64;

  static size_t RoundUp64Sz(size_t n) { return (n + 63) & ~size_t{63}; }

  void SetGeometry(size_t page_elems) {
    SPROFILE_DCHECK(std::has_single_bit(page_elems));
    page_elems_ = page_elems;
    page_shift_ = static_cast<uint32_t>(std::countr_zero(page_elems));
    page_mask_ = page_elems - 1;
    payload_bytes_ = page_elems * sizeof(T);
  }

  void AdoptGeometry(const PagedArray& other) {
    page_elems_ = other.page_elems_;
    page_shift_ = other.page_shift_;
    page_mask_ = other.page_mask_;
    payload_bytes_ = other.payload_bytes_;
  }

  size_t PageCountFor(size_t n) const {
    return (n + page_mask_) >> page_shift_;
  }

  void ResetToEmpty() {
    pages_.clear();
    ctrls_.clear();
    size_ = 0;
    run_ = nullptr;
    run_ctrls_ = nullptr;
    run_base_ = nullptr;
    run_capacity_ = 0;
    flat_ = true;
  }

  /// The degradation rung under every block allocation: the array's own
  /// allocator first; when it refuses (recoverable arena exhaustion —
  /// null return), the block comes from the process heap instead and the
  /// array keeps working, degraded but correct. True heap exhaustion
  /// still throws bad_alloc to the caller (the engine answers with shard
  /// quarantine; docs/ROBUSTNESS.md). *source is null for the primary
  /// allocator, else the fallback the block must be returned to.
  void* AllocateBlock(size_t bytes, PageAllocator** source) const {
    if (!SPROFILE_FAILPOINT("cow_page_alloc_fail")) {
      void* block = alloc_->Allocate(bytes);
      if (block != nullptr) [[likely]] {
        *source = nullptr;
        return block;
      }
    }
    PageAllocator* heap = GlobalHeapPageAllocator().get();
    void* block = heap->Allocate(bytes);  // bad_alloc propagates
    *source = heap;
    SPROFILE_METRIC_COUNTER(
        "sprofile_cow_degraded_allocs", "blocks",
        "Page blocks served from the heap after the primary allocator refused")
        .Increment();
    obs::Trace(obs::TraceEvent::kDegradedAlloc, 0, bytes);
    return block;
  }

  /// The allocator a block must be returned to.
  PageAllocator* BlockSource(PageAllocator* source) const {
    return source != nullptr ? source : alloc_.get();
  }

  /// Carves a run block for `cap` pages: [RunHeader][ctrl strip][payloads
  /// — adjacent]. The returned header starts with live == 1: the owning
  /// array's anchor, which keeps the block mapped (so home slots freed by
  /// snapshots stay reusable) until the array re-homes or dies.
  void AllocateRun(size_t cap, RunHeader** hdr, PageCtrl** ctrls,
                   T** base) const {
    const size_t strip = RoundUp64Sz(cap * sizeof(PageCtrl));
    const size_t bytes = kBlockPrelude + strip + cap * payload_bytes_;
    PageAllocator* source = nullptr;
    char* block = static_cast<char*>(AllocateBlock(bytes, &source));
    auto* h = new (block) RunHeader();
    // orders: relaxed — the block is thread-private until a Snapshot()
    // publishes pages from it; that handoff provides the ordering.
    h->live.store(1, std::memory_order_relaxed);
    h->block_bytes = bytes;
    h->source = source;
    auto* cs = reinterpret_cast<PageCtrl*>(block + kBlockPrelude);
    for (size_t i = 0; i < cap; ++i) {
      auto* c = new (&cs[i]) PageCtrl();
      c->run = h;
    }
    *hdr = h;
    *ctrls = cs;
    *base = reinterpret_cast<T*>(block + kBlockPrelude + strip);
  }

  void MaybeCreateHomeRun(size_t want_pages) {
    if (run_ != nullptr || want_pages == 0) return;
    AllocateRun(want_pages, &run_, &run_ctrls_, &run_base_);
    run_capacity_ = want_pages;
  }

  /// Drops one reference on a run block (a page death or the owner's
  /// anchor); frees the block when the last one goes. Runs on any thread
  /// (snapshot readers retire pages).
  void DropRunRef(RunHeader* run) const {
    const size_t bytes = run->block_bytes;
    PageAllocator* source = BlockSource(run->source);
    // orders: acq_rel — release publishes this owner's last accesses to
    // pages in the block; acquire (taken by whichever decrement hits 0)
    // orders every other owner's accesses before the Deallocate.
    if (run->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      source->Deallocate(run, bytes);
    }
  }

  /// Standalone single-page block: [PageCtrl][payload]. refs starts at 1.
  T* NewStandalonePage(PageCtrl** ctrl_out) const {
    PageAllocator* source = nullptr;
    char* block = static_cast<char*>(
        AllocateBlock(kBlockPrelude + payload_bytes_, &source));
    auto* ctrl = new (block) PageCtrl();
    // orders: relaxed — thread-private until published (see AllocateRun).
    ctrl->refs.store(1, std::memory_order_relaxed);
    ctrl->source = source;
    *ctrl_out = ctrl;
    return reinterpret_cast<T*>(block + kBlockPrelude);
  }

  void UnrefPage(PageCtrl* ctrl) const {
    // orders: acq_rel — release so our prior reads/writes of the page
    // complete before any other thread frees or re-homes it (pairs with
    // the acquire loads in EnsureFlat/EnsureWritable/AppendPage);
    // acquire on the freeing side so all owners' accesses complete before
    // the block returns to the allocator.
    if (ctrl->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      RunHeader* run = ctrl->run;
      if (run != nullptr) {
        DropRunRef(run);
      } else {
        BlockSource(ctrl->source)
            ->Deallocate(ctrl, kBlockPrelude + payload_bytes_);
      }
    }
  }

  /// Appends one page: the home run slot when it is free, else a
  /// standalone block. `src` null = zero-fill (fresh logical page).
  void AppendPage(const T* src) {
    const size_t p = pages_.size();
    if (pages_.empty() && run_ == nullptr) MaybeCreateHomeRun(1);
    if (run_ != nullptr && p < run_capacity_) {
      PageCtrl* home = &run_ctrls_[p];
      // orders: acquire pairs with the release decrement (UnrefPage) of
      // whoever dropped the slot last, ordering their accesses before our
      // fill.
      if (home->refs.load(std::memory_order_acquire) == 0) {
        // orders: relaxed — slot proven free with acquire just above;
        // exclusively ours until published.
        home->refs.store(1, std::memory_order_relaxed);
        // orders: relaxed — live only gates run teardown via the acq_rel
        // fetch_sub in DropRunRef; the owner's anchor keeps it above 0.
        run_->live.fetch_add(1, std::memory_order_relaxed);
        T* page = run_base_ + p * page_elems_;
        FillPage(page, src);
        pages_.push_back(TagExclusive(page));
        ctrls_.push_back(home);
        return;
      }
    }
    // Fallback: no run, the home slot is still pinned by an old snapshot,
    // or we grew past the run.
    PageCtrl* c = nullptr;
    T* page = NewStandalonePage(&c);
    FillPage(page, src);
    flat_ = false;
    pages_.push_back(TagExclusive(page));
    ctrls_.push_back(c);
  }

  void FillPage(T* page, const T* src) const {
    if (src == nullptr) {
      // Explicit zeroing (blocks may be recycled, so "fresh" is not
      // "zero"); doubles as the first touch when the owner thread runs
      // pinned — the zeroing store is the first write to the mapping.
      std::memset(static_cast<void*>(page), 0, payload_bytes_);
    } else {
      std::memcpy(static_cast<void*>(page), src, payload_bytes_);
    }
  }

  void ShareFrom(const PagedArray& other) {
    pages_.reserve(other.pages_.size());
    ctrls_.reserve(other.pages_.size());
    for (size_t p = 0; p < other.pages_.size(); ++p) {
      T* page = other.PageAt(p);
      PageCtrl* c = other.ctrls_[p];
      // orders: relaxed — incrementing from an existing reference (the
      // source array's) can never race the final free; only decrements
      // need acq_rel (UnrefPage).
      c->refs.fetch_add(1, std::memory_order_relaxed);
      pages_.push_back(reinterpret_cast<uintptr_t>(page));  // untagged
      ctrls_.push_back(c);
    }
    size_ = other.size_;
    // Sharing voids the SOURCE's exclusivity tags and flat view: every
    // page now has a co-owner. (Mutating the source's page table is why
    // taking a copy is an owner-side operation; see the contract.)
    for (uintptr_t& p : other.pages_) p &= ~kExclusiveTag;
    other.flat_ = other.pages_.empty();
    flat_ = pages_.empty();
  }

  void Release() {
    for (size_t p = 0; p < pages_.size(); ++p) UnrefPage(ctrls_[p]);
    pages_.clear();
    ctrls_.clear();
    if (run_ != nullptr) DropRunRef(run_);
    run_ = nullptr;
    run_ctrls_ = nullptr;
    run_base_ = nullptr;
    run_capacity_ = 0;
    flat_ = true;
  }

  /// Copies page `p` into a fresh standalone block and drops the shared
  /// reference. The old page stays alive for (and unchanged under) its
  /// remaining snapshot owners. `in_page` (the element about to be
  /// written) only annotates the trace record.
  void FaultPage(size_t p, size_t in_page) {
    PageCtrl* old_ctrl = ctrls_[p];
    PageCtrl* c = nullptr;
    T* fresh = NewStandalonePage(&c);
    std::memcpy(static_cast<void*>(fresh), PageAt(p), payload_bytes_);
    pages_[p] = TagExclusive(fresh);
    ctrls_[p] = c;
    UnrefPage(old_ctrl);
    flat_ = false;
    alloc_->CountFault();
    SPROFILE_METRIC_COUNTER("sprofile_cow_faults", "faults",
                            "COW page fault copies across all arrays")
        .Increment();
    obs::Trace(obs::TraceEvent::kCowFault, static_cast<uint32_t>(p), in_page);
  }

  /// Zeroes elements [begin, end), faulting shared pages as needed.
  void ZeroRange(size_t begin, size_t end) {
    size_t i = begin;
    while (i < end) {
      const size_t page_index = i >> page_shift_;
      const size_t in_page = i & page_mask_;
      const size_t count = std::min(end - i, page_elems_ - in_page);
      if (!(pages_[page_index] & kExclusiveTag)) {
        EnsureWritable(page_index, in_page);
      }
      std::memset(static_cast<void*>(PageAt(page_index) + in_page), 0,
                  count * sizeof(T));
      i += count;
    }
  }

  // -----------------------------------------------------------------------
  // The exclusivity tag (see Mutable above): bit 0 of a page-table entry
  // means "refcount was observed as 1 and no copy has been taken since".
  // -----------------------------------------------------------------------

  static constexpr uintptr_t kExclusiveTag = 1;

  T* PageAt(size_t page_index) const {
    return reinterpret_cast<T*>(pages_[page_index] & ~kExclusiveTag);
  }

  static uintptr_t TagExclusive(T* page) {
    return reinterpret_cast<uintptr_t>(page) | kExclusiveTag;
  }

  /// Slow path of Mutable/ZeroRange before writing element `in_page` of
  /// a page: re-check the refcount (a snapshot may have died), fault if
  /// still shared, else re-arm the tag. Kept out of line: inlined with the
  /// fault copy, it grows Mutable past what the compiler inlines into
  /// callers' update loops, which then pay a call per element.
  [[gnu::noinline]] void EnsureWritable(size_t page_index, size_t in_page) {
    // orders: acquire pairs with UnrefPage's release fetch_sub — seeing
    // refs == 1 means the dying snapshot's reads are ordered before our
    // in-place writes.
    if (ctrls_[page_index]->refs.load(std::memory_order_acquire) != 1) {
      FaultPage(page_index, in_page);
      return;
    }
    pages_[page_index] |= kExclusiveTag;
  }

  /// Full consolidation: every page copied into a fresh run (doubled
  /// headroom after growth past the home run), restoring adjacency. Pages
  /// a snapshot still shares are copied too: a shared page is immutable,
  /// so reading it races nothing, and dropping our reference leaves it to
  /// the snapshot alone.
  bool Consolidate() {
    const size_t want = pages_.size();
    size_t cap = want;
    if (run_ != nullptr && want > run_capacity_) {
      cap = std::bit_ceil(want + want / 2 + 1);
    }
    RunHeader* old_run = run_;
    RunHeader* nr = nullptr;
    PageCtrl* nctrls = nullptr;
    T* nbase = nullptr;
    AllocateRun(cap, &nr, &nctrls, &nbase);
    for (size_t p = 0; p < want; ++p) {
      T* home = nbase + p * page_elems_;
      std::memcpy(static_cast<void*>(home), PageAt(p), payload_bytes_);
      // orders: relaxed — the fresh run is thread-private until a later
      // Snapshot() publishes it (see AllocateRun).
      nctrls[p].refs.store(1, std::memory_order_relaxed);
      nr->live.fetch_add(1, std::memory_order_relaxed);
      UnrefPage(ctrls_[p]);
      pages_[p] = TagExclusive(home);
      ctrls_[p] = &nctrls[p];
    }
    if (old_run != nullptr) DropRunRef(old_run);
    run_ = nr;
    run_ctrls_ = nctrls;
    run_base_ = nbase;
    run_capacity_ = cap;
    flat_ = true;
    obs::Trace(obs::TraceEvent::kConsolidate, static_cast<uint32_t>(want));
    return true;
  }

  PageAllocatorRef alloc_;  // never null
  // Page-table entries: page pointer | exclusivity tag (bit 0). mutable
  // because sharing FROM a (logically const) array must clear its tags.
  mutable std::vector<uintptr_t> pages_;
  // Parallel COLD table: per-page control blocks (refcount, owning run).
  // Off the read/fast-write paths by design.
  mutable std::vector<PageCtrl*> ctrls_;
  size_t size_ = 0;

  // Home run (owner-private; snapshots have none until they consolidate).
  RunHeader* run_ = nullptr;
  PageCtrl* run_ctrls_ = nullptr;
  T* run_base_ = nullptr;
  size_t run_capacity_ = 0;  // pages

  mutable bool flat_ = true;  // empty arrays are trivially flat

  // Geometry (fixed at construction; see SetGeometry).
  size_t page_elems_ = kPageElems;
  uint32_t page_shift_ = 0;
  size_t page_mask_ = 0;
  size_t payload_bytes_ = 0;
};

}  // namespace cow
}  // namespace sprofile

#endif  // SPROFILE_CORE_COW_PAGES_H_
