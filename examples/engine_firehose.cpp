// engine_firehose — the sharded engine under a multi-threaded event
// firehose.
//
// Four producer threads replay a like/unlike stream (Zipf-skewed ids,
// occasional removals) into a ShardedProfiler while the main thread reads
// merged statistics from the engine's lock-free snapshots mid-flight. At
// the end: a Drain barrier, exact final statistics, and a snapshot
// round-trip through SaveAll/LoadAll.
//
//   ./examples/engine_firehose

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"
#include "sprofile/sprofile.h"
#include "stream/log_stream.h"
#include "util/failpoint.h"

namespace engine = sprofile::engine;
using sprofile::Event;

namespace {

// The chaos schedule's menu: recoverable faults only. Quarantining
// points (heap_page_alloc_fail, engine_worker_drain_fail) are left to
// the chaos test suite — this example asserts EXACT end-to-end results,
// which a quarantined shard intentionally cannot provide. In a failpoints
// build every point must fire, or the run fails.
constexpr const char* kChaosPoints[] = {
    "arena_alloc_fail",
    "cow_page_alloc_fail",
    "engine_ring_push_full",
    "arena_mmap_fail",
};
// The first kWindowedPoints sites are hit on every allocation or push, so
// short random windows catch them. The rest guard a new arena mapping,
// which happens only a few times per run: they stay armed from the start
// until they fire once.
constexpr size_t kWindowedPoints = 3;

void ChaosMonkey(const std::atomic<bool>& stop) {
  namespace fp = sprofile::failpoint;
  for (size_t i = kWindowedPoints; i < std::size(kChaosPoints); ++i) {
    fp::Registry::Global().Activate(kChaosPoints[i], fp::Trigger::Once());
  }
  std::mt19937_64 rng(20260808);
  while (!stop.load(std::memory_order_acquire)) {
    const char* name = kChaosPoints[rng() % kWindowedPoints];
    if (rng() % 2 == 0) {
      fp::Registry::Global().Activate(
          name, fp::Trigger::EveryNth(2 + rng() % 9));
    } else {
      fp::Registry::Global().Activate(
          name, fp::Trigger::Probability(0.05 + 0.01 * (rng() % 20),
                                         /*seed=*/rng()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fp::Registry::Global().Deactivate(name);
  }
  fp::Registry::Global().DeactivateAll();
}

}  // namespace

int main(int argc, char** argv) {
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  }

  constexpr uint32_t kCapacity = 1u << 18;   // distinct content ids
  constexpr uint32_t kProducers = 4;
  constexpr uint64_t kEventsPerProducer = 500000;
  constexpr uint64_t kChunk = 512;

  auto made = sprofile::MakeShardedProfiler(
      sprofile::ProfilerOptions().SetInitialCapacity(kCapacity),
      engine::EngineOptions{.shards = 4,
                            .queue_capacity = 1u << 15,
                            .drain_batch = 1024,
                            .snapshot_interval = 1u << 16});
  if (!made.ok()) {
    std::fprintf(stderr, "engine construction failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  engine::ShardedProfiler profiler = std::move(made).value();

  std::printf("firehose: %u producers x %llu events into %u shards%s\n",
              kProducers, static_cast<unsigned long long>(kEventsPerProducer),
              profiler.num_shards(),
              chaos ? " (chaos: recoverable faults armed)" : "");

  std::atomic<bool> stop_chaos{false};
  std::thread chaos_monkey;
  if (chaos) chaos_monkey = std::thread(ChaosMonkey, std::cref(stop_chaos));

  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&profiler, p] {
      sprofile::stream::LogStreamGenerator gen(
          sprofile::stream::MakePaperStreamConfig(2, kCapacity,
                                                  /*seed=*/50 + p));
      std::vector<Event> chunk;
      for (uint64_t done = 0; done < kEventsPerProducer; done += kChunk) {
        chunk.clear();
        gen.GenerateEvents(kChunk, &chunk);
        profiler.ApplyBatch(chunk);
      }
    });
  }

  // Mid-flight reads: merged statistics straight off the snapshots — no
  // lock against the four producers, so the numbers lag but never block.
  for (int tick = 0; tick < 5; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const sprofile::GroupStat mode = profiler.MergedMode();
    std::printf(
        "  t%-2d  applied=%-9llu  mode_freq=%-6lld (x%u ids)  p99_freq=%lld\n",
        tick, static_cast<unsigned long long>(profiler.TotalApplied()),
        static_cast<long long>(mode.frequency), mode.count,
        static_cast<long long>(profiler.Quantile(0.99)));
  }

  for (auto& t : producers) t.join();
  if (chaos_monkey.joinable()) {
    stop_chaos.store(true, std::memory_order_release);
    chaos_monkey.join();  // disarms everything on its way out
  }
  profiler.Drain();  // read-your-writes barrier: stats below are exact

  const uint64_t total_events = uint64_t{kProducers} * kEventsPerProducer;
  std::printf("\nfinal (after Drain, %llu events):\n",
              static_cast<unsigned long long>(total_events));
  std::printf("  total_count = %lld\n",
              static_cast<long long>(profiler.total_count()));
  std::printf("  mode        = %lld\n",
              static_cast<long long>(profiler.Mode()));
  std::printf("  median      = %lld\n",
              static_cast<long long>(profiler.Median()));
  std::printf("  top-5       = ");
  for (int64_t f : profiler.TopK(5)) {
    std::printf("%lld ", static_cast<long long>(f));
  }
  std::printf("\n");

  // Operational view: the same process-wide registry a /metrics scrape
  // would read — engine throughput counters plus the live storage
  // gauges this engine's callbacks contribute (docs/OBSERVABILITY.md).
  const sprofile::obs::MetricsSnapshot metrics =
      sprofile::obs::Registry::Global().Snapshot();
  std::printf("\nobs registry (%zu metrics):\n", metrics.samples.size());
  std::vector<const char*> shown = {
      "sprofile_engine_events_drained", "sprofile_engine_publishes",
      "sprofile_engine_parks",          "sprofile_engine_pages_live",
      "sprofile_engine_arena_bytes_mapped", "sprofile_cow_faults"};
  if (chaos) {
    // The ladder's own telemetry: how often faults fired and what each
    // rung absorbed. Quarantines must stay 0 — only recoverable points
    // were armed — and with the default kBlock policy so must sheds.
    shown.insert(shown.end(),
                 {"sprofile_failpoint_fires", "sprofile_cow_degraded_allocs",
                  "sprofile_arena_alloc_failures",
                  "sprofile_engine_shed_events",
                  "sprofile_engine_quarantined_shards"});
  }
  for (const char* name : shown) {
    const sprofile::obs::MetricSample* s = metrics.Find(name);
    if (s == nullptr) continue;
    const long long v = s->kind == sprofile::obs::MetricKind::kCounter
                            ? static_cast<long long>(s->count)
                            : static_cast<long long>(s->value);
    std::printf("  %-36s = %lld %s\n", name, v, s->unit.c_str());
  }
  std::printf("recent lifecycle trace (newest of %zu events):\n",
              profiler.DumpTrace().size());
  const std::vector<sprofile::obs::TraceRecord> trace = profiler.DumpTrace();
  const size_t show = trace.size() < 5 ? trace.size() : size_t{5};
  std::printf("%s",
              sprofile::obs::FormatTrace(std::vector<sprofile::obs::TraceRecord>(
                                             trace.end() - show, trace.end()))
                  .c_str());

  // Durability round-trip: per-shard SPPF snapshots plus a manifest.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sprofile_firehose_snapshot")
          .string();
  if (sprofile::Status s = engine::SaveAll(profiler, dir); !s.ok()) {
    std::fprintf(stderr, "SaveAll failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto restored = engine::LoadAll(dir, engine::EngineOptions{});
  if (!restored.ok()) {
    std::fprintf(stderr, "LoadAll failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  const bool same = restored->Mode() == profiler.Mode() &&
                    restored->total_count() == profiler.total_count();
  std::printf("snapshot round-trip via %s: %s\n", dir.c_str(),
              same ? "OK" : "MISMATCH");
  std::filesystem::remove_all(dir);

  bool healthy = true;
  if (chaos) {
    namespace fp = sprofile::failpoint;
    uint64_t fires = 0;
    for (const char* name : kChaosPoints) {
      const uint64_t n = fp::Registry::Global().FireCount(name);
      fires += n;
      std::printf("chaos: %-24s fired %llu times\n", name,
                  static_cast<unsigned long long>(n));
    }
#if defined(SPROFILE_FAILPOINTS)
    std::printf("chaos: %llu injected faults absorbed, engine %s\n",
                static_cast<unsigned long long>(fires),
                profiler.Healthy() ? "healthy" : "QUARANTINED");
    // An armed point that never fired left its rung unexercised.
    for (const char* name : kChaosPoints) {
      if (fp::Registry::Global().FireCount(name) == 0) {
        std::printf("chaos: FAILED — %s never fired\n", name);
        healthy = false;
      }
    }
#else
    std::printf("chaos: injection sites compiled out "
                "(build with -DSPROFILE_FAILPOINTS=ON); %llu fires\n",
                static_cast<unsigned long long>(fires));
#endif
    // Recoverable faults only: a quarantine or a dropped event here
    // means a ladder rung leaked.
    healthy = healthy && profiler.Healthy() && profiler.ShedEvents() == 0;
  }
  return (same && healthy) ? 0 : 1;
}
