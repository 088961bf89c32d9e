// flat_kernel.h — scalar prefetch staging for the exclusive-epoch flat
// update path (FrequencyProfile::ApplyBatch; docs/ENGINE.md "batch
// replay").
//
// The S-Profile update is O(1) instructions but THREE dependent loads deep:
//
//   f_to_t[id]  ->  slots[rank].block  ->  blocks[handle].{l,r,f}
//                                        ->  slots[l] / slots[r] (edges)
//
// and the Algorithm-1 steps of consecutive updates CONFLICT through the
// shared block partition (update k can move the very block update k+1 is
// about to touch), so execution stays serial and in order. What CAN run
// ahead is the memory: the helpers below walk the batch a few events
// ahead of execution and prefetch the lines each link of the chain needs.
//
// Layout contract (static_asserted at the point of use,
// frequency_profile.cc — this header deliberately does not include the
// core headers): slots is an 8-byte-stride array {uint32 id, uint32 block}
// with the block handle at byte offset 4; blocks is a 16-byte-stride
// array {uint32 l, uint32 r, int64 f}.

#ifndef SPROFILE_CORE_FLAT_KERNEL_H_
#define SPROFILE_CORE_FLAT_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sprofile {
namespace simd {

/// Non-faulting L1 prefetch hint. Safe on any address, including ones
/// computed from stale staged values — a wrong address is a wasted hint,
/// never a fault.
inline void PrefetchT0(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Minimum batch size for ApplyBatch's up-front warm pass (one slot-line
/// prefetch per event): below this the extra sweep costs more than the
/// chain misses it hides.
inline constexpr size_t kWarmMinBatch = 256;

/// Four-stage scalar lookahead. Per executed update it walks the whole
/// dependent-load chain of Algorithm 1 at four staggered distances ahead
/// of execution, issuing one prefetch per level:
///
///   A (i+24)  prefetch &f_to_t[id]
///   B (i+16)  load rank, prefetch &slots[rank]
///   C (i+8)   load slot.block, prefetch &blocks[handle]
///   D (i+4)   load block {l,r}, prefetch both edge slot lines
///
///   StageLookahead(ft, slots, blocks, ids[i+24], ids[i+16], ids[i+8],
///                  ids[i+4]);
///   execute ids[i];
///
/// Every staged load reads a value the executing thread itself wrote, so
/// there is no tearing — but the value may be stale by the time execution
/// reaches that id (earlier updates swap ranks and move block edges).
/// Stale values are only ever used as prefetch addresses (a wasted hint)
/// or as indices that are in-bounds by structural invariant: a rank is
/// always < m and a handle stored in a live slot is always < the pool's
/// slot capacity, stale or not. Callers guard i + kLookaheadMax < n and
/// the flat epoch, and pass the epoch's current bases.
inline constexpr size_t kLookaheadA = 24;
inline constexpr size_t kLookaheadB = 16;
inline constexpr size_t kLookaheadC = 8;
inline constexpr size_t kLookaheadD = 4;
inline constexpr size_t kLookaheadMax = kLookaheadA;

inline void StageLookahead(const uint32_t* f_to_t, const void* slots,
                           const void* blocks, uint32_t a_id, uint32_t b_id,
                           uint32_t c_id, uint32_t d_id) {
  // Strides/offsets match RankSlot (8 bytes, block at +4) and Block
  // (16 bytes, l at +0, r at +4), static_asserted at the use site.
  const char* slot_base = static_cast<const char*>(slots);
  const char* block_base = static_cast<const char*>(blocks);
  PrefetchT0(f_to_t + a_id);
  uint32_t rank_b;
  std::memcpy(&rank_b, f_to_t + b_id, sizeof(rank_b));
  PrefetchT0(slot_base + size_t{rank_b} * 8);
  uint32_t rank_c;
  std::memcpy(&rank_c, f_to_t + c_id, sizeof(rank_c));
  uint32_t handle_c;
  std::memcpy(&handle_c, slot_base + size_t{rank_c} * 8 + 4,
              sizeof(handle_c));
  PrefetchT0(block_base + size_t{handle_c} * 16);
  uint32_t rank_d;
  std::memcpy(&rank_d, f_to_t + d_id, sizeof(rank_d));
  uint32_t handle_d;
  std::memcpy(&handle_d, slot_base + size_t{rank_d} * 8 + 4,
              sizeof(handle_d));
  uint32_t edges[2];  // {l, r}
  std::memcpy(edges, block_base + size_t{handle_d} * 16, sizeof(edges));
  PrefetchT0(slot_base + size_t{edges[0]} * 8);
  PrefetchT0(slot_base + size_t{edges[1]} * 8);
}

}  // namespace simd
}  // namespace sprofile

#endif  // SPROFILE_CORE_FLAT_KERNEL_H_
