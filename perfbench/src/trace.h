// Spans recorded by the benchmark around its calls into each layer's
// public functions (the library itself carries no spans yet).
//
// A span records its kind (name + layer), start, end, parent span and
// thread; every span opened while a thread works on one request carries
// that request's id. Spans nest per thread, so a span's self time is its
// duration minus the durations of its children, accumulated when it
// closes. All spans are aggregated; the first kStoredSpanCap are also kept
// in memory and written out by Dump() when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

enum class Layer : uint8_t { kBench, kEngine, kCore, kObs };
inline constexpr const char* kLayerNames[] = {"bench", "engine", "core", "obs"};
inline constexpr size_t kLayers = 4;

enum class Kind : uint8_t {
  kRound,             // bench: one measured round, main thread
  kProduce,           // bench: one producer's push loop
  kQuery,             // bench: one reader request (mode + top-k + polls)
  kCoreReplay,        // bench: one single-thread replay pass
  kEngineConstruct,   // engine: ShardedProfiler construction
  kEngineApplyBatch,  // engine: ShardedProfiler::ApplyBatch
  kEngineAdd,         // engine: ShardedProfiler::Add
  kEngineDrain,       // engine: ShardedProfiler::Drain
  kEngineMode,        // engine: merged Mode()
  kEngineTopK,        // engine: merged TopK(100)
  kEngineSnapshotAll, // engine: SnapshotAll()
  kEngineOracle,      // engine: the oracle check's queries
  kCoreApplyBatch,    // core: FrequencyProfile::ApplyBatch
  kCoreAddRemove,     // core: a chunk of FrequencyProfile::Add/Remove
  kCoreSnapshot,      // core: FrequencyProfile::Snapshot
  kCoreTopK,          // core: FrequencyProfile::TopK on a held snapshot
  kCoreHistogram,     // core: FrequencyProfile::Histogram on a held snapshot
  kObsScrape,         // obs: Registry::Snapshot + ToPrometheusText
  kCount,
};

struct KindInfo {
  const char* name;
  Layer layer;
};

inline constexpr KindInfo kKinds[] = {
    {"bench.round", Layer::kBench},
    {"bench.produce", Layer::kBench},
    {"bench.query", Layer::kBench},
    {"bench.core_replay", Layer::kBench},
    {"engine.construct", Layer::kEngine},
    {"engine.apply_batch", Layer::kEngine},
    {"engine.add", Layer::kEngine},
    {"engine.drain", Layer::kEngine},
    {"engine.mode", Layer::kEngine},
    {"engine.topk", Layer::kEngine},
    {"engine.snapshot_all", Layer::kEngine},
    {"engine.oracle_queries", Layer::kEngine},
    {"core.apply_batch", Layer::kCore},
    {"core.add_remove", Layer::kCore},
    {"core.snapshot", Layer::kCore},
    {"core.topk", Layer::kCore},
    {"core.histogram", Layer::kCore},
    {"obs.scrape", Layer::kObs},
};
inline constexpr size_t kKindCount = static_cast<size_t>(Kind::kCount);
static_assert(sizeof(kKinds) / sizeof(kKinds[0]) == kKindCount);

inline constexpr size_t kStoredSpanCap = size_t{1} << 18;

struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t id;
  uint32_t parent;   // 0: a root span
  uint32_t request;  // 0: not part of a request
  uint16_t thread;
  Kind kind;
};

struct KindTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Flip only while no traced thread runs: threads read the flag when a
  // span opens, and a span opened while on must close while on.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  // Starts a new request on the calling thread; later spans carry its id.
  void NewRequest() {
    Local().request = next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  void Begin(Kind kind) {
    Thread& t = Local();
    const uint32_t parent = t.stack.empty() ? 0 : t.stack.back().id;
    t.stack.push_back(Open{next_id_.fetch_add(1, std::memory_order_relaxed),
                           parent, NowNs(), 0, kind});
  }

  // Closes the innermost open span; returns its duration in ns.
  uint64_t End() {
    const uint64_t end = NowNs();
    Thread& t = Local();
    const Open o = t.stack.back();
    t.stack.pop_back();
    const uint64_t dur = end - o.start;
    KindTotals& k = t.totals[static_cast<size_t>(o.kind)];
    ++k.count;
    k.total_ns += dur;
    k.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
    if (!t.stack.empty()) t.stack.back().child_ns += dur;
    if (stored_.fetch_add(1, std::memory_order_relaxed) < kStoredSpanCap) {
      t.spans.push_back(
          SpanRecord{o.start, end, o.id, o.parent, t.request, t.index, o.kind});
    }
    return dur;
  }

  // The readers below require every traced thread to have been joined.
  std::array<KindTotals, kKindCount> Totals() const {
    std::array<KindTotals, kKindCount> out{};
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : threads_) {
      for (size_t i = 0; i < kKindCount; ++i) {
        out[i].count += t->totals[i].count;
        out[i].total_ns += t->totals[i].total_ns;
        out[i].self_ns += t->totals[i].self_ns;
      }
    }
    return out;
  }

  uint64_t SpansRecorded() const {
    return stored_.load(std::memory_order_relaxed);
  }

  // Writes the stored spans as tab-separated rows. Returns false on an
  // I/O failure.
  bool Dump(const std::string& path) const {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
    if (!f) return false;
    std::fprintf(f.get(),
                 "id\tparent\trequest\tthread\tname\tlayer\tstart_ns\tend_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : threads_) {
      for (const SpanRecord& s : t->spans) {
        const KindInfo& k = kKinds[static_cast<size_t>(s.kind)];
        std::fprintf(f.get(), "%u\t%u\t%u\t%u\t%s\t%s\t%llu\t%llu\n", s.id,
                     s.parent, s.request, static_cast<unsigned>(s.thread),
                     k.name, kLayerNames[static_cast<size_t>(k.layer)],
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    return std::fflush(f.get()) == 0 && !std::ferror(f.get());
  }

 private:
  struct Open {
    uint32_t id;
    uint32_t parent;
    uint64_t start;
    uint64_t child_ns;
    Kind kind;
  };
  struct Thread {
    uint16_t index = 0;
    uint32_t request = 0;
    std::vector<Open> stack;
    std::vector<SpanRecord> spans;
    KindTotals totals[kKindCount];
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  // Each OS thread gets its own record, owned by the tracer so it
  // outlives the thread.
  Thread& Local() {
    thread_local Thread* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<Thread>());
      local = threads_.back().get();
      local->index = static_cast<uint16_t>(threads_.size() - 1);
    }
    return *local;
  }

  const std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> next_request_{1};
  std::atomic<uint64_t> stored_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;  // guarded by mu_
};

// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(Kind kind) : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().Begin(kind);
  }
  ~Span() { Finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span early; returns its duration in ns (0 when untraced or
  // already closed).
  uint64_t Finish() {
    if (!on_) return 0;
    on_ = false;
    return Tracer::Get().End();
  }

 private:
  bool on_;
};

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
