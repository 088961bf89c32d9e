// The block-set storage backing FrequencyProfile (paper §2.1).
//
// A *block* is a maximal run of equal values in the sorted frequency array
// T, represented as the triple (l, r, f): starting rank, ending rank
// (inclusive) and the shared frequency. The set of blocks partitions the
// rank space and fully captures T without storing it.
//
// Blocks are kept in a pooled, copy-on-write paged array (core/cow_pages.h)
// addressed by 32-bit handles. Every S-Profile update deletes at most one
// block and creates at most one, so a free list keeps the pool at <= m + 1
// entries with zero steady-state allocation — the O(1) update bound
// includes allocation. Copying a BlockPool shares its pages (O(#pages));
// the first write after a copy faults just the touched page, which is what
// makes FrequencyProfile::Snapshot() cheap.

#ifndef SPROFILE_CORE_BLOCK_SET_H_
#define SPROFILE_CORE_BLOCK_SET_H_

#include <cstdint>

#include "core/cow_pages.h"
#include "util/logging.h"

namespace sprofile {

/// Handle to a block inside BlockPool. 32 bits keeps the rank->block pointer
/// array (PtrB in the paper) at 4 bytes per object.
using BlockHandle = uint32_t;

/// Sentinel for "no block".
inline constexpr BlockHandle kInvalidBlock = 0xffffffffu;

/// One maximal run of equal frequency in the sorted array T.
/// Ranks are 0-based and `r` is inclusive (the paper is 1-based).
struct Block {
  uint32_t l;  ///< first rank of the run
  uint32_t r;  ///< last rank of the run (inclusive)
  int64_t f;   ///< frequency shared by ranks [l, r]
};

/// Free-list block allocator over copy-on-write pages.
///
/// Handles are stable for the lifetime of the block (until Free). A
/// reference from Get()/GetMutable() survives pool growth (pages never
/// move) but NOT a later GetMutable()/Alloc touching the same page after a
/// snapshot — copy Block values out instead of holding references across
/// other pool operations.
///
/// Copying a BlockPool shares pages (COW); DeepClone() copies them.
///
/// Flat fast path (ISSUE 5): when both paged arrays are in their
/// exclusive-epoch flat view (cow_pages.h), BeginFlat() caches raw base
/// pointers and the Flat* methods below run the same free-list discipline
/// with zero page-table indirection. A Flat* call that has to grow an
/// array past its run degrades flat_ok() — callers (the FrequencyProfile
/// update kernel) check it once per operation and fall back to the paged
/// path. The cached pointers are only valid while the owning profile's
/// flat epoch holds; taking a snapshot of the pool invalidates the epoch
/// at the profile layer, which gates every Flat* call.
class BlockPool {
 public:
  /// Heap-backed pool with default page geometry.
  BlockPool() = default;

  /// Pool whose pages come from `alloc` (null = process heap), with page
  /// geometry adapted to a profile of `capacity_hint` objects (a profile
  /// of m objects holds at most m + 1 blocks).
  BlockPool(cow::PageAllocatorRef alloc, uint64_t capacity_hint)
      : blocks_(alloc, capacity_hint),
        free_list_(std::move(alloc), capacity_hint / 4 + 1) {}

  /// Pre-sizes the pool's page tables (handles are assigned on Alloc).
  void Reserve(size_t n) {
    blocks_.reserve(n);
    free_list_.reserve(n / 4 + 1);
  }

  /// Allocates a block, reusing a freed slot when available.
  BlockHandle Alloc(uint32_t l, uint32_t r, int64_t f) {
    BlockHandle h;
    if (free_count_ > 0) {
      h = free_list_[--free_count_];
      blocks_.Mutable(h) = Block{l, r, f};
    } else {
      h = static_cast<BlockHandle>(blocks_.size());
      blocks_.push_back(Block{l, r, f});
    }
    ++live_;
    return h;
  }

  /// Returns a block to the free list. The handle must be live.
  void Free(BlockHandle h) {
    SPROFILE_DCHECK(h < blocks_.size());
    if (free_count_ == free_list_.size()) {
      free_list_.push_back(h);
    } else {
      free_list_.Mutable(free_count_) = h;
    }
    ++free_count_;
    SPROFILE_DCHECK(live_ > 0);
    --live_;
  }

  /// Read access; safe on snapshots concurrently with the owner updating.
  const Block& Get(BlockHandle h) const {
    SPROFILE_DCHECK(h < blocks_.size());
    return blocks_[h];
  }

  /// Write access; copy-on-write faults the covering page if shared.
  Block& GetMutable(BlockHandle h) {
    SPROFILE_DCHECK(h < blocks_.size());
    return blocks_.Mutable(h);
  }

  // ---------------------------------------------------------------------
  // Flat fast path (see class comment). Owner thread only.
  // ---------------------------------------------------------------------

  /// Attempts to put both arrays into their flat view and caches the base
  /// pointers. Returns flat_ok(). With force, pages still shared with a
  /// live snapshot are copied into fresh runs instead of blocking the
  /// epoch (see cow::PagedArray::ForceFlat); callers gate that on
  /// accumulated paged-path work.
  bool BeginFlat(bool force = false) {
    const bool ok = force
                        ? blocks_.ForceFlat() && free_list_.ForceFlat()
                        : blocks_.EnsureFlat() && free_list_.EnsureFlat();
    if (!ok) {
      flat_ok_ = false;
      return false;
    }
    flat_blocks_ = blocks_.flat_data();
    flat_free_ = free_list_.flat_data();
    flat_ok_ = true;
    return true;
  }

  /// True while the Flat* methods below are usable. Degrades when a flat
  /// alloc/free had to grow an array past its run.
  bool flat_ok() const { return flat_ok_; }

  /// Raw base of the flat block array, for callers that hoist it out of
  /// their update loop. Stable across FlatAlloc/FlatFree: the base only
  /// moves on a consolidation (never mid-update), and a degrading alloc
  /// leaves previously issued handles readable at the old base.
  Block* flat_blocks_base() { return flat_blocks_; }

  /// Alloc on the flat path; degrades flat_ok() (and keeps working) when
  /// growth pushes an array past its run.
  BlockHandle FlatAlloc(uint32_t l, uint32_t r, int64_t f) {
    if (!flat_ok_) [[unlikely]] return Alloc(l, r, f);
    if (free_count_ > 0) {
      const BlockHandle h = flat_free_[--free_count_];
      flat_blocks_[h] = Block{l, r, f};
      ++live_;
      return h;
    }
    const BlockHandle h = static_cast<BlockHandle>(blocks_.size());
    blocks_.push_back(Block{l, r, f});
    ++live_;
    if (blocks_.flat()) {
      flat_blocks_ = blocks_.flat_data();  // base may go null -> valid
    } else {
      flat_ok_ = false;
    }
    return h;
  }

  /// Free on the flat path; may degrade flat_ok() when the free list has
  /// to grow past its run.
  void FlatFree(BlockHandle h) {
    SPROFILE_DCHECK(h < blocks_.size());
    if (!flat_ok_) [[unlikely]] {
      Free(h);
      return;
    }
    if (free_count_ == free_list_.size()) {
      free_list_.push_back(h);
      if (free_list_.flat()) {
        flat_free_ = free_list_.flat_data();
      } else {
        flat_ok_ = false;
      }
    } else {
      flat_free_[free_count_] = h;
    }
    ++free_count_;
    SPROFILE_DCHECK(live_ > 0);
    --live_;
  }

  /// Number of live (allocated, not freed) blocks.
  size_t live() const { return live_; }

  /// Total slots ever allocated (live + free-listed); measures peak usage.
  size_t slots() const { return blocks_.size(); }

  void Clear() {
    blocks_.clear();
    free_list_.clear();
    free_count_ = 0;
    live_ = 0;
    flat_ok_ = false;
    flat_blocks_ = nullptr;
    flat_free_ = nullptr;
  }

  /// An independent deep copy (Clone() path; snapshots use the copy ctor).
  BlockPool DeepClone() const {
    BlockPool out;
    out.blocks_ = blocks_.DeepClone();
    out.free_list_ = free_list_.DeepClone();
    out.free_count_ = free_count_;
    out.live_ = live_;
    return out;
  }

  /// Heap bytes of the pool's pages and tables.
  size_t MemoryBytes() const {
    return blocks_.MemoryBytes() + free_list_.MemoryBytes();
  }

  /// Pages co-owned by at least one snapshot (diagnostics).
  size_t SharedPageCount() const {
    return blocks_.SharedPageCount() + free_list_.SharedPageCount();
  }

  /// Total storage pages (diagnostics).
  size_t PageCount() const {
    return blocks_.num_pages() + free_list_.num_pages();
  }

 private:
  cow::PagedArray<Block> blocks_;
  // The free list is paged too: a snapshot must not force an O(free)
  // copy, and a snapshot that is later written to needs a usable free
  // list. Pops only read and drop the count; pushes write via COW.
  cow::PagedArray<BlockHandle> free_list_;
  size_t free_count_ = 0;
  size_t live_ = 0;

  // Flat-path cache (BeginFlat). Copied along by the implicit copy ctor,
  // but a copy's pointers are only ever consulted after its own BeginFlat
  // — the profile-level flat_ready_ flag gates every Flat* call.
  Block* flat_blocks_ = nullptr;
  BlockHandle* flat_free_ = nullptr;
  bool flat_ok_ = false;
};

}  // namespace sprofile

#endif  // SPROFILE_CORE_BLOCK_SET_H_
