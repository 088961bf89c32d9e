// Explicit instantiation of the default engine (S-Profile shards), so the
// ~700 lines of worker/merge machinery compile once here instead of in
// every consumer TU. Other backends (e.g. ShardedProfilerT<adapters::Naive>
// in the parity tests) instantiate implicitly.
//
// Also home of the arena-allocator construction: the only place the engine
// reaches into core/page_arena.h, keeping the public header clean of core
// internals (the splint facade-includes rule).

#include "sprofile/engine/sharded_profiler.h"

#include "core/page_arena.h"

namespace sprofile {
namespace engine {
namespace internal {

cow::PageAllocatorRef MakeEngineArenaAllocator(uint64_t footprint_bytes) {
  // Size the first arena mapping to the shard's expected storage footprint
  // (clamped to [64 KiB, arena_bytes]) so hugepage-sized shards start on a
  // hugepage-eligible mapping instead of climbing the doubling ladder.
  return cow::MakeArenaPageAllocator(
      cow::ArenaOptionsForFootprint(footprint_bytes));
}

}  // namespace internal

template class internal::ShardWorker<adapters::SProfile>;
template class ShardedProfilerT<adapters::SProfile>;

static_assert(FullProfiler<ShardedProfiler>,
              "the engine must speak the full concept vocabulary");
static_assert(ShardBackend<adapters::SProfile>);
static_assert(ShardBackend<adapters::Naive>);

}  // namespace engine
}  // namespace sprofile
