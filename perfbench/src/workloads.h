// The benchmark's workloads: what each one runs, why it exists, and how
// its input is generated from the seed.
//
// Every workload profiles m = 2^20 ids. The top kProbeIds ids are reserved
// for freshness probes, so no generated event touches them. Inputs are
// generated before anything is timed; the engine only ever sees the
// generated events.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sprofile/engine/engine_options.h"
#include "sprofile/event.h"
#include "stream/distribution.h"
#include "stream/log_stream.h"
#include "util/random.h"

namespace perfbench {

using sprofile::Event;

constexpr uint32_t kIds = 1u << 20;
constexpr uint32_t kProbeIds = 4096;
constexpr uint32_t kStreamIds = kIds - kProbeIds;
constexpr size_t kPushChunk = 1024;  // events per producer ApplyBatch call
constexpr size_t kInputEvents = size_t{1} << 23;
constexpr uint32_t kShards = 2;

// Open loop: offered rate, round length and probe cadence.
constexpr double kServeRate = 1e7;  // events/s
constexpr size_t kServeRoundBatches = 19532;  // ~2 s at kServeRate
constexpr size_t kServeProbeEvery = 10;       // batches; ~1 ms
constexpr size_t kServeProbes =
    (kServeRoundBatches + kServeProbeEvery - 1) / kServeProbeEvery;
static_assert(kServeProbes <= kProbeIds);

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string_view name;
  // Why the workload exists: later changes cite workloads by name, and
  // this says which layer each one loads and which it bypasses.
  std::string_view why;
  Loop loop;

  // The EngineOptions defaults, so a changed default is measured, except
  // kShards and, on the closed loops, no interval publishing: publication
  // stays off the pure-ingestion path.
  sprofile::engine::EngineOptions Options() const {
    sprofile::engine::EngineOptions o;
    o.shards = kShards;
    if (loop == Loop::kClosed) o.snapshot_interval = 0;
    return o;
  }
};

inline constexpr Workload kWorkloads[] = {
    {"ingest_zipf",
     "Closed loop, 2 producers, Zipf(1.1) 75/25 add/remove: the drain and "
     "replay do the work on a skewed, cache-resident hot set; publication "
     "and queries are off the timed path.",
     Loop::kClosed},
    {"ingest_storm",
     "Closed loop, 2 producers, ~80% adjacent add/remove pairs on a 1024-id "
     "hot set plus a uniform tail: netting does most of the work, replay "
     "little, and the tail keeps cold-miss replay in the mix.",
     Loop::kClosed},
    {"serve_uniform",
     "Open loop at 1e7 ev/s of the paper's Stream1 beside a reader running "
     "Mode/TopK(100) and freshness probes: publication, COW faults and the "
     "query merge do the work on a working set larger than L2.",
     Loop::kOpen},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace internal {

inline std::vector<Event> FromConfig(sprofile::stream::StreamConfig config) {
  sprofile::stream::LogStreamGenerator gen(std::move(config));
  return gen.TakeEvents(kInputEvents);
}

// Like/unlike storm: with probability 2/3 a step emits Add(x), Remove(x)
// for x from a 1024-id hot set, else one uniform event with 25% removes,
// so about 80% of the events are cancelling pairs.
inline std::vector<Event> Storm(uint64_t seed) {
  sprofile::Xoshiro256PlusPlus rng(seed);
  std::vector<uint32_t> hot;
  std::vector<bool> taken(kStreamIds, false);
  while (hot.size() < 1024) {
    const auto id = static_cast<uint32_t>(rng.NextBounded(kStreamIds));
    if (!taken[id]) {
      taken[id] = true;
      hot.push_back(id);
    }
  }
  std::vector<Event> out;
  out.reserve(kInputEvents);
  while (out.size() < kInputEvents) {
    if (rng.NextBounded(3) < 2 && kInputEvents - out.size() >= 2) {
      const uint32_t x = hot[rng.NextBounded(hot.size())];
      out.push_back(Event::Add(x));
      out.push_back(Event::Remove(x));
    } else {
      const auto id = static_cast<uint32_t>(rng.NextBounded(kStreamIds));
      out.push_back(rng.NextBounded(4) == 0 ? Event::Remove(id) : Event::Add(id));
    }
  }
  return out;
}

}  // namespace internal

// The workload's input: kInputEvents events over [0, kStreamIds). A closed
// loop pushes it once per round; the open loop cycles through it.
inline std::vector<Event> GenerateInput(const Workload& w, uint64_t seed) {
  namespace st = sprofile::stream;
  if (w.name == "ingest_zipf") {
    st::StreamConfig c;
    c.num_objects = kStreamIds;
    c.add_probability = 0.75;
    c.positive = std::make_shared<st::ZipfIdDistribution>(kStreamIds, 1.1);
    c.negative = c.positive;
    c.seed = seed;
    return internal::FromConfig(std::move(c));
  }
  if (w.name == "ingest_storm") return internal::Storm(seed);
  return internal::FromConfig(st::MakePaperStreamConfig(1, kStreamIds, seed));
}

// FNV-1a over the events, so a run can show which input it measured.
inline uint64_t InputChecksum(std::span<const Event> events) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Event& e : events) {
    for (const uint32_t word : {e.id, static_cast<uint32_t>(e.delta)}) {
      for (int b = 0; b < 4; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

inline uint32_t ProbeId(size_t k) { return kStreamIds + static_cast<uint32_t>(k); }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
