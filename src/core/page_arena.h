// PageArena — hugepage-arena backing for cow::PagedArray pages.
//
// PR 3 made snapshot publication O(#pages), but it paid for that with one
// heap allocation per 4 KiB page: pages of one profile end up scattered
// across the heap, which defeats the adjacency prefetcher and adds
// store-address latency on the update hot path (~1.5–2x per ±1 update vs
// the old flat arrays at m = 1M; ROADMAP "Arena-backed COW pages"). This
// allocator restores layout control: page blocks are bump-carved out of
// large mmap arenas flagged MADV_HUGEPAGE, so one profile's pages sit
// contiguously inside a handful of mappings — the contiguity/doubling
// discipline of Tarjan & Zwick's resizable arrays applied at the
// allocator layer.
//
// Design:
//
//   - Arenas double: the first mapping is small (first_arena_bytes) and
//     each subsequent one doubles up to arena_bytes (default 2 MiB), so a
//     tiny profile does not reserve 2 MiB and a big one settles on
//     hugepage-sized mappings. Oversized requests get a dedicated
//     mapping.
//   - Bump allocation only. Freed blocks are NOT resewn into free lists;
//     instead every arena counts its live blocks, and an arena that is
//     *sealed* (no longer the bump target) and fully drained is reclaimed
//     whole — returned to the OS (or kept as the one spare mapping to
//     absorb alloc/free churn). COW workloads free pages in the same
//     temporal clusters they allocate them (a retiring snapshot drops its
//     faulted pages together), so whole-arena reclamation tracks the
//     workload; the per-arena live count is what guarantees a lone
//     snapshot-pinned page can hold at most ITS 2 MiB arena, never the
//     allocator's whole history.
//   - Thread safety: Allocate takes a mutex (allocation happens on array
//     growth and COW faults, not per update — the hot path writes into
//     existing exclusive pages). Deallocate is lock-free until a block's
//     arena drains to zero: each block carries a one-cache-line prelude
//     pointing at its arena, so a snapshot reader retiring thousands of
//     pages does one atomic decrement per page and takes the mutex only
//     for whole-arena reclamation. Arena descriptors are never freed
//     before the allocator (mappings are; descriptors are recycled), so
//     a racing decrement can never touch unmapped memory.
//   - ASan: a mapping is poisoned from creation, a carve unpoisons its
//     block and a free re-poisons it, so a use-after-free or an overrun
//     into uncarved space reports like a heap error would. The macros
//     from <sanitizer/asan_interface.h> compile to nothing outside ASan.

#ifndef SPROFILE_CORE_PAGE_ARENA_H_
#define SPROFILE_CORE_PAGE_ARENA_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include <sanitizer/asan_interface.h>

#include "core/cow_pages.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SPROFILE_ARENA_HAVE_MMAP 1
#else
#define SPROFILE_ARENA_HAVE_MMAP 0
#endif

namespace sprofile {
namespace cow {

/// Default arena mapping size: one x86-64 huge page.
inline constexpr size_t kDefaultArenaBytes = size_t{2} << 20;

/// Smallest OS page the arena math assumes (arena sizes must be multiples
/// of this).
inline constexpr size_t kArenaBasePageBytes = 4096;

/// Profiles whose storage footprint is below this default to the shared
/// heap allocator instead of a private arena: a mapping per tiny profile
/// would cost more than scattered pages do (the exhaustive property tests
/// build hundreds of thousands of m <= 4 profiles).
inline constexpr uint64_t kArenaDefaultMinBytes = 256 * 1024;

struct ArenaOptions {
  /// Steady-state mapping size. Must be a multiple of kArenaBasePageBytes.
  size_t arena_bytes = kDefaultArenaBytes;

  /// First mapping size; subsequent arenas double up to arena_bytes.
  size_t first_arena_bytes = 64 * 1024;

  /// madvise(MADV_HUGEPAGE) mappings of at least 2 MiB.
  bool use_hugepages = true;

  /// Full-size drained mappings kept WARM (physical pages retained) for
  /// reuse instead of munmap. The engine's COW cycle churns whole arenas
  /// every publish/retire round; recycling warm mappings turns that into
  /// pointer work instead of mmap + zero-fill faults. Bounded memory
  /// cost: max_spare_arenas * arena_bytes per allocator. Set 0 to return
  /// every drained arena to the OS immediately.
  size_t max_spare_arenas = 4;
};

class ArenaPageAllocator final : public PageAllocator {
 public:
  explicit ArenaPageAllocator(ArenaOptions options = {}) : options_(options) {
    SPROFILE_CHECK_MSG(options_.arena_bytes % kArenaBasePageBytes == 0,
                       "arena_bytes must be a multiple of 4 KiB");
    SPROFILE_CHECK_MSG(options_.arena_bytes > 0, "arena_bytes must be > 0");
    next_arena_bytes_ =
        std::min(std::max(options_.first_arena_bytes, kArenaBasePageBytes),
                 options_.arena_bytes);
  }

  ArenaPageAllocator(const ArenaPageAllocator&) = delete;
  ArenaPageAllocator& operator=(const ArenaPageAllocator&) = delete;

  ~ArenaPageAllocator() override {
    // Every PagedArray holds a shared_ptr to its allocator, so reaching
    // the destructor means every page has been returned.
    MutexLock lock(mu_);
    for (const std::unique_ptr<Arena>& a : arenas_) {
      SPROFILE_DCHECK(a->live.load(std::memory_order_relaxed) == 0);
      if (a->base != nullptr) UnmapLocked(a.get());
    }
  }

  /// Returns null when the OS refuses a new mapping (ENOMEM) — a
  /// recoverable condition, not a crash: cow::PagedArray falls back to
  /// heap pages and the engine's degradation ladder takes it from there
  /// (docs/ROBUSTNESS.md).
  void* Allocate(size_t bytes) override SPROFILE_EXCLUDES(mu_) {
    if (SPROFILE_FAILPOINT("arena_alloc_fail")) return nullptr;
    const size_t need = kBlockPrelude + RoundUp64(bytes);
    MutexLock lock(mu_);
    Arena* arena;
    if (need > options_.arena_bytes) {
      // Oversized request: a dedicated mapping, sealed on the spot so it
      // drains straight to reclamation when its block dies.
      arena = NewArenaLocked(need);
      if (arena == nullptr) return AllocFailedLocked();
      arena->sealed = true;
    } else {
      if (current_ == nullptr || current_->bump + need > current_->bytes) {
        SealCurrentLocked();
        current_ = NewArenaLocked(need);
      }
      arena = current_;
      if (arena == nullptr) return AllocFailedLocked();
    }
    char* block = arena->base + arena->bump;
    arena->bump += need;
    arena->live.fetch_add(1, std::memory_order_relaxed);
    ASAN_UNPOISON_MEMORY_REGION(block, kBlockPrelude + bytes);
    *reinterpret_cast<Arena**>(block) = arena;
    pages_allocated_.fetch_add(1, std::memory_order_relaxed);
    bytes_live_.fetch_add(need, std::memory_order_relaxed);
    return block + kBlockPrelude;
  }

  void Deallocate(void* block, size_t bytes) noexcept override
      SPROFILE_EXCLUDES(mu_) {
    char* prelude = static_cast<char*>(block) - kBlockPrelude;
    Arena* arena = *reinterpret_cast<Arena**>(prelude);
    pages_freed_.fetch_add(1, std::memory_order_relaxed);
    bytes_live_.fetch_sub(kBlockPrelude + RoundUp64(bytes),
                          std::memory_order_relaxed);
    // Poisoned before the decrement: once live can reach zero the arena
    // may be recycled and re-carved, and this thread must not poison a
    // block someone else now owns.
    ASAN_POISON_MEMORY_REGION(prelude, kBlockPrelude + RoundUp64(bytes));
    // orders: release here pairs with the acquire re-checks in
    // MaybeReclaim and SealCurrentLocked — the freeing thread's last
    // touch of the mapping happens-before unmap.
    if (arena->live.fetch_sub(1, std::memory_order_release) == 1) {
      MaybeReclaim(arena);
    }
  }

  PageAllocStats Stats() const override {
    PageAllocStats s;
    s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
    s.pages_freed = pages_freed_.load(std::memory_order_relaxed);
    s.page_bytes_live = bytes_live_.load(std::memory_order_relaxed);
    s.cow_faults = FaultCount();
    s.arenas_created = arenas_created_.load(std::memory_order_relaxed);
    s.arenas_reclaimed = arenas_reclaimed_.load(std::memory_order_relaxed);
    s.arenas_live = arenas_live_.load(std::memory_order_relaxed);
    s.hugepage_arenas = hugepage_arenas_.load(std::memory_order_relaxed);
    s.arena_bytes_mapped = bytes_mapped_.load(std::memory_order_relaxed);
    s.alloc_failures = alloc_failures_.load(std::memory_order_relaxed);
    return s;
  }

  const ArenaOptions& options() const { return options_; }

 private:
  /// One cache line reserved at the head of every block for the owning
  /// arena's descriptor pointer, keeping the caller's payload 64-aligned
  /// and Deallocate O(1) without an address-range search.
  static constexpr size_t kBlockPrelude = 64;

  struct Arena {
    // All fields except `live` are guarded by the allocator's mu_ (the
    // analysis cannot express a guard owned by an enclosing object, so
    // the *Locked discipline of the member functions below carries the
    // proof instead).
    char* base = nullptr;   // null after reclamation
    size_t bytes = 0;
    size_t bump = 0;        // next free offset
    bool sealed = false;    // true once no longer the bump target
    bool huge = false;
    std::atomic<uint64_t> live{0};  // blocks handed out and not yet freed
  };

  static size_t RoundUp64(size_t n) { return (n + 63) & ~size_t{63}; }

  void SealCurrentLocked() SPROFILE_REQUIRES(mu_) {
    if (current_ == nullptr) return;
    current_->sealed = true;
    // orders: acquire pairs with Deallocate's release decrement — the
    // arena may have fully drained while it was still the bump target
    // (frees skip !sealed arenas); sweep it now.
    if (current_->live.load(std::memory_order_acquire) == 0) {
      ReclaimLocked(current_);
    }
    current_ = nullptr;
  }

  /// Fresh (or recycled) mapping big enough for `need` bytes.
  Arena* NewArenaLocked(size_t need) SPROFILE_REQUIRES(mu_) {
    // Spare reuse: a drained full-size mapping absorbs churn. Spares are
    // still counted in arenas_live / arena_bytes_mapped (the mapping is
    // resident the whole time), so no counter changes here.
    if (need <= options_.arena_bytes) {
      for (Arena* spare : spare_) {
        if (spare->bytes >= need) {
          spare_.erase(std::find(spare_.begin(), spare_.end(), spare));
          spare->bump = 0;
          spare->sealed = false;
          return spare;
        }
      }
    }
    const size_t bytes =
        std::max(next_arena_bytes_, RoundUpTo(need, kArenaBasePageBytes));
    next_arena_bytes_ = std::min(next_arena_bytes_ * 2, options_.arena_bytes);

    // Recycle a reclaimed descriptor if one is free, else grow the table.
    Arena* arena = nullptr;
    for (const std::unique_ptr<Arena>& a : arenas_) {
      if (a->base == nullptr && !IsSpare(a.get())) {
        arena = a.get();
        break;
      }
    }
    if (arena == nullptr) {
      arenas_.push_back(std::make_unique<Arena>());
      arena = arenas_.back().get();
    }
    arena->base = MapArena(bytes, &arena->huge);
    if (arena->base == nullptr) {
      // Recoverable mmap failure (ENOMEM / vm.max_map_count): the
      // descriptor stays on the table with a null base, exactly the
      // shape the recycle scan above looks for, so nothing leaks.
      return nullptr;
    }
    arena->bytes = bytes;
    arena->bump = 0;
    arena->sealed = false;
    arenas_created_.fetch_add(1, std::memory_order_relaxed);
    arenas_live_.fetch_add(1, std::memory_order_relaxed);
    bytes_mapped_.fetch_add(bytes, std::memory_order_relaxed);
    if (arena->huge) hugepage_arenas_.fetch_add(1, std::memory_order_relaxed);
    SPROFILE_METRIC_COUNTER("sprofile_arena_creates", "arenas",
                            "Arena mappings created across all allocators")
        .Increment();
    obs::Trace(obs::TraceEvent::kArenaCreate, 0, bytes);
    return arena;
  }

  bool IsSpare(const Arena* a) const SPROFILE_REQUIRES(mu_) {
    return std::find(spare_.begin(), spare_.end(), a) != spare_.end();
  }

  /// Called off the free path when an arena's live count hit zero.
  void MaybeReclaim(Arena* arena) noexcept SPROFILE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    // Re-check under the lock: the arena may have been resurrected from
    // the spare list and be in use again, may still be the bump target,
    // or another thread may have reclaimed it first.
    if (arena->base == nullptr || !arena->sealed || IsSpare(arena)) return;
    // orders: acquire pairs with Deallocate's release decrement, making
    // every freeing thread's page accesses visible before the unmap.
    if (arena->live.load(std::memory_order_acquire) != 0) return;
    ReclaimLocked(arena);
  }

  void ReclaimLocked(Arena* arena) noexcept SPROFILE_REQUIRES(mu_) {
    if (arena->bytes == options_.arena_bytes &&
        spare_.size() < options_.max_spare_arenas) {
      // Kept warm deliberately: dropping the physical pages (MADV_DONTNEED)
      // would re-pay zero-fill faults on reuse, which is the exact churn
      // the spare list exists to absorb. A spare stays in arenas_live /
      // arena_bytes_mapped — the mapping is still resident, and the
      // counters are documented as current-state gauges.
      spare_.push_back(arena);
      obs::Trace(obs::TraceEvent::kArenaReclaim, 1, arena->bytes);
      return;
    }
    arenas_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    arenas_live_.fetch_sub(1, std::memory_order_relaxed);
    bytes_mapped_.fetch_sub(arena->bytes, std::memory_order_relaxed);
    SPROFILE_METRIC_COUNTER("sprofile_arena_reclaims", "arenas",
                            "Drained arena mappings returned to the OS")
        .Increment();
    obs::Trace(obs::TraceEvent::kArenaReclaim, 0, arena->bytes);
    UnmapLocked(arena);
  }

  void UnmapLocked(Arena* arena) noexcept SPROFILE_REQUIRES(mu_) {
    // The next mapping at this address must not inherit stale poison.
    ASAN_UNPOISON_MEMORY_REGION(arena->base, arena->bytes);
#if SPROFILE_ARENA_HAVE_MMAP
    munmap(arena->base, arena->bytes);
#else
    ::operator delete(arena->base, std::align_val_t{64});
#endif
    if (arena->huge) {
      hugepage_arenas_.fetch_sub(1, std::memory_order_relaxed);
      arena->huge = false;
    }
    arena->base = nullptr;
    arena->bytes = 0;
  }

  static size_t RoundUpTo(size_t n, size_t unit) {
    return (n + unit - 1) / unit * unit;
  }

  /// Null on a fired alloc-failure accounting path: one counter bump per
  /// refused request so degraded periods are visible in Stats() even
  /// when the heap fallback papers over them.
  void* AllocFailedLocked() SPROFILE_REQUIRES(mu_) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    SPROFILE_METRIC_COUNTER("sprofile_arena_alloc_failures", "failures",
                            "Arena page allocations refused (mmap failure)")
        .Increment();
    return nullptr;
  }

  char* MapArena(size_t bytes, bool* huge) {
    *huge = false;
    if (SPROFILE_FAILPOINT("arena_mmap_fail")) return nullptr;
#if SPROFILE_ARENA_HAVE_MMAP
    void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return nullptr;
#if defined(MADV_HUGEPAGE)
    if (options_.use_hugepages && bytes >= kDefaultArenaBytes) {
      // Advisory: THP may be disabled; the arena works either way.
      *huge = madvise(base, bytes, MADV_HUGEPAGE) == 0;
    }
#endif
    ASAN_POISON_MEMORY_REGION(base, bytes);  // uncarved until Allocate
    return static_cast<char*>(base);
#else
    void* base = ::operator new(bytes, std::align_val_t{64});
    ASAN_POISON_MEMORY_REGION(base, bytes);
    return static_cast<char*>(base);
#endif
  }

  const ArenaOptions options_;

  Mutex mu_;
  // Descriptors live forever (recycled, never freed) so a racing
  // Deallocate can always dereference its arena pointer.
  std::vector<std::unique_ptr<Arena>> arenas_ SPROFILE_GUARDED_BY(mu_);
  // Drained full-size mappings kept warm for reuse.
  std::vector<Arena*> spare_ SPROFILE_GUARDED_BY(mu_);
  Arena* current_ SPROFILE_GUARDED_BY(mu_) = nullptr;  // bump target
  size_t next_arena_bytes_ SPROFILE_GUARDED_BY(mu_) = kDefaultArenaBytes;

  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint64_t> pages_freed_{0};
  std::atomic<uint64_t> bytes_live_{0};
  std::atomic<uint64_t> arenas_created_{0};
  std::atomic<uint64_t> arenas_reclaimed_{0};
  std::atomic<uint64_t> arenas_live_{0};
  std::atomic<uint64_t> hugepage_arenas_{0};
  std::atomic<uint64_t> bytes_mapped_{0};
  std::atomic<uint64_t> alloc_failures_{0};
};

inline PageAllocatorRef MakeArenaPageAllocator(ArenaOptions options = {}) {
  return std::make_shared<ArenaPageAllocator>(options);
}

/// Sizes `base`'s FIRST arena mapping to an expected paged-storage
/// footprint, rounded down to a power of two and clamped to
/// [base.first_arena_bytes, base.arena_bytes]: storage that is
/// hugepage-sized starts on a hugepage-eligible mapping instead of
/// climbing the 64 KiB doubling ladder — which made `hugepage_arenas`
/// depend on where the ladder happened to stop (the ISSUE 5 "0 at 8
/// shards" report). The single authority for footprint-based first-arena
/// sizing: the profile default allocator below and the engine's
/// per-shard allocator both route through here.
inline ArenaOptions ArenaOptionsForFootprint(uint64_t footprint_bytes,
                                             ArenaOptions base = {}) {
  if (footprint_bytes > base.first_arena_bytes) {
    base.first_arena_bytes = static_cast<size_t>(
        std::min<uint64_t>(std::bit_floor(footprint_bytes), base.arena_bytes));
  }
  return base;
}

/// The default allocator for a profile expected to hold about
/// `footprint_bytes_hint` bytes of paged storage: a private arena for
/// profiles big enough to profit from contiguity, the shared heap for
/// small ones.
inline PageAllocatorRef MakeProfileDefaultAllocator(
    uint64_t footprint_bytes_hint) {
  if (footprint_bytes_hint < kArenaDefaultMinBytes) {
    return GlobalHeapPageAllocator();
  }
  return MakeArenaPageAllocator(ArenaOptionsForFootprint(footprint_bytes_hint));
}

}  // namespace cow
}  // namespace sprofile

#endif  // SPROFILE_CORE_PAGE_ARENA_H_
