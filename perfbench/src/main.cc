// perfbench — the repository benchmark. Runs one workload (workloads.h)
// against the public sprofile:: API for a given number of seconds, checks
// every round against the NaiveProfiler oracle, and prints its metrics,
// ending with one JSON line:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dump <path>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (spans around every call into the engine, core and obs
// layers), adds single-thread core replays and an obs on/off comparison,
// and reports the per-layer metrics, each layer's self time and the
// tracing overhead. README.md defines every metric.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/frequency_profile.h"
#include "oracle.h"
#include "procmem.h"
#include "sprofile/obs/export.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/sprofile.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using sprofile::engine::ShardedProfiler;
using trace::Kind;
using trace::Span;
using trace::Tracer;
namespace obs = sprofile::obs;

constexpr size_t kLatencyCap = size_t{1} << 20;
// Closed rounds: timed query pairs on the drained engine, enough for each
// round to be its own tail window; and a freshness probe from producer 0
// every kProbeEveryChunks of its calls.
constexpr size_t kClosedQueries = kWindowSamples;
constexpr size_t kProbeEveryChunks = 32;
constexpr size_t kClosedProbes =
    (kInputEvents / 2 / kPushChunk + kProbeEveryChunks - 1) / kProbeEveryChunks;
static_assert(kClosedProbes <= kProbeIds);
constexpr int kSetupsPerRound = 4;
// Open-loop validity: a round whose generator is still this far behind
// its schedule at its last batch, or whose backlog (sampled at every probe
// add) has a median above half the rings, did not sustain the offered
// rate; it is failed instead of measured. Transients (a stalled worker
// filling its ring for a few ms, then catching up) are measured, not
// failed: they show in loadgen.late_p99_us and engine.backlog_end.
constexpr double kMaxEndLateUs = 50000.0;

double Secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string span_dump;
};

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (val == nullptr) return false;
    uint64_t v = 0;
    if (flag == "--workload") {
      a->workload = FindWorkload(val);
      if (a->workload == nullptr) return false;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!ParseUint(val, &a->seed)) return false;
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(val, &v) || v < 1 || v > 600) return false;
      a->seconds = static_cast<int>(v);
      have[2] = true;
    } else if (flag == "--trace") {
      if (!ParseUint(val, &v) || v > 1) return false;
      a->trace = v == 1;
      have[3] = true;
    } else if (flag == "--span-dump") {
      a->span_dump = val;
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

// ---------------------------------------------------------------------------
// Registry readings: the counters the layers already publish.
// ---------------------------------------------------------------------------

constexpr const char* kCounters[] = {
    "sprofile_engine_events_drained", "sprofile_engine_drain_batches",
    "sprofile_engine_publishes",      "sprofile_engine_parks",
    "sprofile_engine_wakes",          "sprofile_cow_faults",
    "sprofile_batch_cancelled_events", "sprofile_batch_replays",
    "sprofile_batch_sorted",
};
// Callback gauges summed over live engines; each engine starts at 0.
constexpr const char* kEngineGauges[] = {
    "sprofile_engine_ring_full_rejections",
    "sprofile_engine_ring_enqueue_retries",
};
constexpr const char* kDrainHistogram = "sprofile_engine_drain_batch_ns";

struct Reading {
  std::map<std::string, double> values;
  std::vector<uint64_t> drain_buckets;
};

Reading ReadRegistry() {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  Reading r;
  for (const char* name : kCounters) {
    const obs::MetricSample* s = snap.Find(name);
    r.values[name] = s != nullptr ? static_cast<double>(s->count) : 0.0;
  }
  for (const char* name : kEngineGauges) {
    const obs::MetricSample* s = snap.Find(name);
    r.values[name] = s != nullptr ? static_cast<double>(s->value) : 0.0;
  }
  if (const obs::MetricSample* s = snap.Find(kDrainHistogram)) {
    r.drain_buckets = s->buckets;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

// End-to-end samples of one kind of round (untraced, traced, obs off).
struct EndToEnd {
  std::vector<double> eps;      // per round
  std::vector<double> setup_s;  // per engine construction
  std::vector<double> backlog;  // per round, before the final drain
  std::vector<double> mem_peak_mib;  // per round, above the RSS at its start
  LatencySeries fresh_ms{size_t{1} << 16, 11};
  LatencySeries mode_us{kLatencyCap, 13};
  LatencySeries topk_us{kLatencyCap, 15};
  Sampler late_us{size_t{1} << 20, 17};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t invalid_rounds = 0;

  void EndRound() {
    fresh_ms.EndRound();
    mode_us.EndRound();
    topk_us.EndRound();
  }
};

// Per-layer samples, collected in traced rounds only.
struct Layers {
  Sampler apply_batch_us{size_t{1} << 20, 21};
  Sampler snapshot_all_ns{size_t{1} << 20, 22};
  std::vector<double> drain_tail_ms;
  std::vector<double> publish_pause_us;
  std::vector<double> scrape_ms;
  std::map<std::string, double> deltas;
  std::vector<uint64_t> drain_bucket_deltas;
  double window_s = 0.0;  // wall time the counter deltas cover

  void Accumulate(const Reading& a, const Reading& b, double secs) {
    for (const auto& [name, v] : b.values) {
      const auto it = a.values.find(name);
      deltas[name] += v - (it != a.values.end() ? it->second : 0.0);
    }
    drain_bucket_deltas.resize(
        std::max(drain_bucket_deltas.size(), b.drain_buckets.size()), 0);
    for (size_t i = 0; i < b.drain_buckets.size(); ++i) {
      const uint64_t before = i < a.drain_buckets.size() ? a.drain_buckets[i] : 0;
      drain_bucket_deltas[i] += b.drain_buckets[i] - before;
    }
    window_s += secs;
  }
  double Delta(const char* name) const {
    const auto it = deltas.find(name);
    return it != deltas.end() ? it->second : 0.0;
  }
};

// Buffers the open loop reuses every round, allocated before the
// peak-RSS reset so they are not charged to the engine.
struct OpenScratch {
  std::vector<uint64_t> probe_add_ns = std::vector<uint64_t>(kServeProbes, 1);
  Sampler mode_us{kLatencyCap, 31};
  Sampler topk_us{kLatencyCap, 32};
  Sampler fresh_ms{kServeProbes, 33};
  Sampler late_us{kServeRoundBatches, 34};
  Sampler apply_batch_us{kServeRoundBatches, 35};
  Sampler snapshot_all_ns{size_t{1} << 20, 36};
  std::vector<double> backlog = std::vector<double>(kServeProbes, 0.0);
};

template <typename Series>
void Merge(const Sampler& from, Series* to) {
  for (double v : from.values()) to->Add(v);
}

double ScrapeMs() {
  Span s(Kind::kObsScrape);
  const auto t = Clock::now();
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const std::string text = obs::ToPrometheusText(snap);
  const double ms = Secs(Clock::now() - t) * 1e3;
  if (text.empty()) std::fprintf(stderr, "perfbench: empty obs scrape\n");
  return ms;
}

void CollectPauses(const ShardedProfiler& eng, Layers* layers) {
  for (uint64_t ns : eng.SnapshotPauseSamplesNs()) {
    layers->publish_pause_us.push_back(static_cast<double>(ns) / 1e3);
  }
}

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Freshness probes: the producer adds probe ids in order and stamps when
// each Add returned; the reader polls, per shard, the oldest probe it has
// not yet seen. A shard applies its ring in order and publishes monotonic
// epochs, so its probes become visible in the order they were added. The
// producer and the reader may be one thread or two.
class ProbeTracker {
 public:
  ProbeTracker(const ShardedProfiler& eng, std::vector<uint64_t>* add_ns)
      : eng_(eng), add_ns_(*add_ns), next_(eng.num_shards()) {
    for (uint32_t s = 0; s < next_.size(); ++s) {
      size_t k = 0;
      while (k < next_.size() && eng.ShardOf(ProbeId(k)) != s) ++k;
      next_[s] = k;
    }
  }

  // Producer side: probe `issued()` was just added.
  void Added() {
    const size_t k = issued_.load(std::memory_order_relaxed);
    add_ns_[k] = SteadyNs();
    issued_.store(k + 1, std::memory_order_release);
  }
  size_t issued() const { return issued_.load(std::memory_order_acquire); }

  // Reader side: records the lag of every probe that became visible.
  template <typename Series>
  void Poll(Series* fresh_ms) {
    const size_t n = issued();
    const size_t stride = next_.size();
    for (size_t& k : next_) {
      while (k < n) {
        const uint64_t t = SteadyNs();
        if (eng_.Frequency(ProbeId(k)) <= 0) break;
        fresh_ms->Add(static_cast<double>(t - add_ns_[k]) / 1e6);
        k += stride;
      }
    }
  }

  // Probes added but never seen.
  size_t Unseen() const {
    const size_t n = issued();
    size_t unseen = 0;
    for (size_t k : next_) {
      for (; k < n; k += next_.size()) ++unseen;
    }
    return unseen;
  }

 private:
  const ShardedProfiler& eng_;
  std::vector<uint64_t>& add_ns_;
  std::vector<size_t> next_;  // reader only
  std::atomic<size_t> issued_{0};
};

// Counts a round's failed operations, naming them in the text output.
void CountFailures(EndToEnd* m, uint64_t events_rejected,
                   uint64_t probes_rejected, uint64_t probes_unseen) {
  const uint64_t n = events_rejected + probes_rejected + probes_unseen;
  if (n == 0) return;
  std::printf("# round failures: %" PRIu64 " events rejected, %" PRIu64
              " probe adds rejected, %" PRIu64 " probes never visible\n",
              events_rejected, probes_rejected, probes_unseen);
  m->failed += n;
}

// Every round ends here: the oracle check on the drained engine, then the
// round's peak memory above the resident size when it began.
void FinishRound(const ShardedProfiler& eng, const Expected& expected,
                 int64_t rss_kb, EndToEnd* m) {
  CheckResult r;
  {
    Span s(Kind::kEngineOracle);
    r = CheckAgainst(eng, expected);
  }
  if (r.mismatches > 0) {
    std::printf("# oracle: %" PRIu64 " mismatches\n", r.mismatches);
  }
  m->attempted += r.attempted;
  m->failed += r.mismatches;
  m->mismatches += r.mismatches;
  m->mem_peak_mib.push_back(
      static_cast<double>(ReadStatusKb("VmHWM") - rss_kb) / 1024.0);
}

// Engine construction, timed kSetupsPerRound times; the last engine is
// the round's.
void Construct(const Workload& w, std::optional<ShardedProfiler>* eng,
               EndToEnd* m) {
  for (int i = 0; i < kSetupsPerRound; ++i) {
    eng->reset();
    const auto t = Clock::now();
    {
      Span s(Kind::kEngineConstruct);
      eng->emplace(kIds, w.Options());
    }
    m->setup_s.push_back(Secs(Clock::now() - t));
  }
}

// One reader request: a timed merged Mode() and TopK(100), and in traced
// rounds a timed SnapshotAll(), the grab every merged query starts with.
template <typename Series>
void TimedQueries(const ShardedProfiler& eng, Series* mode_us, Series* topk_us,
                  Sampler* snapshot_all_ns) {
  auto t = Clock::now();
  {
    Span s(Kind::kEngineMode);
    (void)eng.Mode();
  }
  mode_us->Add(Us(Clock::now() - t));
  t = Clock::now();
  {
    Span s(Kind::kEngineTopK);
    (void)eng.TopK(kTopK);
  }
  topk_us->Add(Us(Clock::now() - t));
  if (snapshot_all_ns != nullptr) {
    Span s(Kind::kEngineSnapshotAll);
    (void)eng.SnapshotAll();
    snapshot_all_ns->Add(static_cast<double>(s.Finish()));
  }
}

// ---------------------------------------------------------------------------
// Closed loop: two producers push the input once and the engine drains it.
// Producer 0 also adds a freshness probe every kProbeEveryChunks chunks
// and, between its pushes, polls for the probes to become visible; with
// interval publishing off that is normally when the burst is drained, so
// the lag is how long a burst keeps its own adds out of reads. The drained
// engine then answers timed queries and faces the oracle.
// ---------------------------------------------------------------------------

void RunClosedRound(const Workload& w, std::span<const Event> input,
                    const Expected& expected, EndToEnd* m, Layers* layers) {
  Span round(Kind::kRound);
  const int64_t rss_kb = ResetPeakRss();
  std::optional<ShardedProfiler> eng;
  Construct(w, &eng, m);
  Reading start_reading;
  if (layers != nullptr) start_reading = ReadRegistry();

  std::vector<uint64_t> add_ns(kClosedProbes);
  ProbeTracker probes(*eng, &add_ns);
  std::atomic<uint64_t> accepted{0};
  std::atomic<bool> second_done{false};
  uint64_t probe_ok = 0;
  std::vector<double> call_us[2];
  double late_us[2] = {0.0, 0.0};
  const auto t0 = Clock::now();
  auto produce = [&](int p, std::span<const Event> part) {
    Span s(Kind::kProduce);
    late_us[p] = Us(Clock::now() - t0);
    uint64_t ok = 0;
    for (size_t i = 0, c = 0; i < part.size(); i += kPushChunk, ++c) {
      const auto chunk = part.subspan(i, std::min(kPushChunk, part.size() - i));
      if (layers != nullptr) Tracer::Get().NewRequest();
      Span call(Kind::kEngineApplyBatch);
      ok += eng->ApplyBatch(chunk);
      const uint64_t ns = call.Finish();
      if (ns != 0) call_us[p].push_back(static_cast<double>(ns) / 1e3);
      if (p != 0) continue;
      if (c % kProbeEveryChunks == 0) {
        {
          Span a(Kind::kEngineAdd);
          probe_ok += eng->Add(ProbeId(probes.issued())) ? 1 : 0;
        }
        probes.Added();
      }
      probes.Poll(&m->fresh_ms);
    }
    accepted.fetch_add(ok, std::memory_order_relaxed);
  };
  const size_t half = input.size() / 2;
  std::thread second([&] {
    produce(1, input.subspan(half));
    second_done.store(true, std::memory_order_release);
  });
  produce(0, input.first(half));
  while (!second_done.load(std::memory_order_acquire)) {
    probes.Poll(&m->fresh_ms);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  second.join();
  m->backlog.push_back(
      static_cast<double>(eng->TotalEnqueued() - eng->TotalApplied()));
  {
    Span d(Kind::kEngineDrain);
    eng->Drain();
    const uint64_t ns = d.Finish();
    if (layers != nullptr) layers->drain_tail_ms.push_back(ns / 1e6);
  }
  const auto t1 = Clock::now();
  probes.Poll(&m->fresh_ms);
  m->eps.push_back(static_cast<double>(input.size()) / Secs(t1 - t0));
  m->late_us.Add(late_us[0]);
  m->late_us.Add(late_us[1]);
  m->attempted += input.size() + probes.issued();
  CountFailures(m, input.size() - accepted.load(std::memory_order_relaxed),
                probes.issued() - probe_ok, probes.Unseen());
  if (layers != nullptr) {
    layers->Accumulate(start_reading, ReadRegistry(), Secs(t1 - t0));
    for (const auto& v : call_us) {
      for (double x : v) layers->apply_batch_us.Add(x);
    }
    CollectPauses(*eng, layers);
  }

  Sampler* snapshot_all = layers != nullptr ? &layers->snapshot_all_ns : nullptr;
  for (size_t i = 0; i < kClosedQueries; ++i) {
    if (layers != nullptr) Tracer::Get().NewRequest();
    Span q(Kind::kQuery);
    TimedQueries(*eng, &m->mode_us, &m->topk_us, snapshot_all);
  }
  m->attempted += 2 * kClosedQueries;
  m->EndRound();
  if (layers != nullptr) layers->scrape_ms.push_back(ScrapeMs());

  FinishRound(*eng, expected, rss_kb, m);
}

// ---------------------------------------------------------------------------
// Open loop: one producer offers the input at kServeRate on a wall-clock
// schedule while one reader alternates Mode()/TopK(100) and polls the
// freshness probes the producer adds every kServeProbeEvery batches.
// ---------------------------------------------------------------------------

void RunOpenRound(const Workload& w, std::span<const Event> input,
                  const Expected& expected, EndToEnd* m, Layers* layers,
                  OpenScratch* scratch) {
  Span round(Kind::kRound);
  const int64_t rss_kb = ResetPeakRss();
  std::optional<ShardedProfiler> eng;
  Construct(w, &eng, m);
  Reading start_reading;
  if (layers != nullptr) start_reading = ReadRegistry();

  OpenScratch& sc = *scratch;
  sc.mode_us.Clear();
  sc.topk_us.Clear();
  sc.fresh_ms.Clear();
  sc.late_us.Clear();
  sc.apply_batch_us.Clear();
  sc.snapshot_all_ns.Clear();
  ProbeTracker probes(*eng, &sc.probe_add_ns);
  std::atomic<bool> stop{false};
  std::vector<double> scrapes;
  uint64_t reader_queries = 0;

  std::thread reader([&] {
    auto next_scrape = Clock::now() + std::chrono::seconds(1);
    while (!stop.load(std::memory_order_acquire)) {
      if (layers != nullptr) Tracer::Get().NewRequest();
      Span q(Kind::kQuery);
      TimedQueries(*eng, &sc.mode_us, &sc.topk_us,
                   layers != nullptr ? &sc.snapshot_all_ns : nullptr);
      probes.Poll(&sc.fresh_ms);
      q.Finish();
      reader_queries += 2;
      if (layers != nullptr && Clock::now() >= next_scrape) {
        scrapes.push_back(ScrapeMs());
        next_scrape += std::chrono::seconds(1);
      }
    }
    // The producer drained before stopping us: every probe is visible.
    probes.Poll(&sc.fresh_ms);
  });

  const double period_ns = 1e9 * static_cast<double>(kPushChunk) / kServeRate;
  uint64_t accepted = 0;
  uint64_t probe_ok = 0;
  double end_late_us = 0.0;
  const auto t0 = Clock::now();
  for (size_t b = 0; b < kServeRoundBatches; ++b) {
    const auto due = t0 + std::chrono::nanoseconds(
                              static_cast<int64_t>(b * period_ns));
    auto now = Clock::now();
    while (now < due) {
      CpuRelax();
      now = Clock::now();
    }
    end_late_us = Us(now - due);
    sc.late_us.Add(end_late_us);
    const size_t off = (b * kPushChunk) % input.size();
    {
      if (layers != nullptr) Tracer::Get().NewRequest();
      Span call(Kind::kEngineApplyBatch);
      accepted += eng->ApplyBatch(input.subspan(off, kPushChunk));
      const uint64_t ns = call.Finish();
      if (ns != 0) sc.apply_batch_us.Add(static_cast<double>(ns) / 1e3);
    }
    if (b % kServeProbeEvery == 0) {
      {
        Span s(Kind::kEngineAdd);
        probe_ok += eng->Add(ProbeId(probes.issued())) ? 1 : 0;
      }
      probes.Added();
      sc.backlog[probes.issued() - 1] =
          static_cast<double>(eng->TotalEnqueued() - eng->TotalApplied());
    }
  }
  const double backlog_median =
      Median(std::vector<double>(sc.backlog.begin(),
                                 sc.backlog.begin() + probes.issued()));
  const double backlog =
      static_cast<double>(eng->TotalEnqueued() - eng->TotalApplied());
  {
    Span d(Kind::kEngineDrain);
    eng->Drain();
    const uint64_t ns = d.Finish();
    if (layers != nullptr) layers->drain_tail_ms.push_back(ns / 1e6);
  }
  const auto t1 = Clock::now();
  stop.store(true, std::memory_order_release);
  reader.join();

  const uint64_t events = kServeRoundBatches * kPushChunk;
  m->attempted += events + probes.issued() + reader_queries;
  CountFailures(m, events - accepted, probes.issued() - probe_ok,
                probes.Unseen());
  if (layers != nullptr) {
    layers->Accumulate(start_reading, ReadRegistry(), Secs(t1 - t0));
    Merge(sc.apply_batch_us, &layers->apply_batch_us);
    Merge(sc.snapshot_all_ns, &layers->snapshot_all_ns);
    layers->scrape_ms.insert(layers->scrape_ms.end(), scrapes.begin(),
                             scrapes.end());
    CollectPauses(*eng, layers);
  }

  const double backlog_limit =
      0.5 * static_cast<double>(w.Options().queue_capacity) * eng->num_shards();
  const bool valid =
      backlog_median <= backlog_limit && end_late_us <= kMaxEndLateUs;
  if (valid) {
    m->eps.push_back(static_cast<double>(events + probes.issued()) /
                     Secs(t1 - t0));
    m->backlog.push_back(backlog);
    Merge(sc.mode_us, &m->mode_us);
    Merge(sc.topk_us, &m->topk_us);
    Merge(sc.fresh_ms, &m->fresh_ms);
    Merge(sc.late_us, &m->late_us);
    m->EndRound();
  } else {
    std::printf("# round invalid: median backlog %.0f (limit %.0f), "
                "generator %.1f us behind at its last batch (limit %.0f)\n",
                backlog_median, backlog_limit, end_late_us, kMaxEndLateUs);
    ++m->invalid_rounds;
    ++m->failed;
  }

  FinishRound(*eng, expected, rss_kb, m);
}

// ---------------------------------------------------------------------------
// Single-thread core replay of the workload's input (traced runs).
// ---------------------------------------------------------------------------

struct CoreFigures {
  double apply_batch_ns = 0.0;  // per event
  double add_remove_ns = 0.0;   // per event
  std::vector<double> snapshot_us;
  double paged_frac = 0.0;
  std::vector<double> topk_us;
  std::vector<double> histogram_us;
};

sprofile::FrequencyProfile NewCoreProfile() {
  sprofile::FrequencyProfile p(kIds);
  p.set_batch_sort_threshold(
      sprofile::engine::EngineOptions{}.batch_sort_threshold);
  return p;
}

CoreFigures CoreReplay(std::span<const Event> input) {
  Span replay(Kind::kCoreReplay);
  const size_t chunk = sprofile::engine::EngineOptions{}.drain_batch;
  const uint64_t interval = sprofile::engine::EngineOptions{}.snapshot_interval;
  CoreFigures c;
  const double n = static_cast<double>(input.size());
  {
    sprofile::FrequencyProfile p = NewCoreProfile();
    const auto t = Clock::now();
    for (size_t i = 0; i < input.size(); i += chunk) {
      Span s(Kind::kCoreApplyBatch);
      p.ApplyBatch(input.subspan(i, std::min(chunk, input.size() - i)));
    }
    c.apply_batch_ns = Secs(Clock::now() - t) * 1e9 / n;
  }
  {
    sprofile::FrequencyProfile p = NewCoreProfile();
    const auto t = Clock::now();
    for (size_t i = 0; i < input.size(); i += chunk) {
      Span s(Kind::kCoreAddRemove);
      const size_t end = std::min(input.size(), i + chunk);
      for (size_t j = i; j < end; ++j) {
        if (input[j].delta > 0) {
          p.Add(input[j].id);
        } else {
          p.Remove(input[j].id);
        }
      }
    }
    c.add_remove_ns = Secs(Clock::now() - t) * 1e9 / n;
  }
  {
    // Publication as a shard sees it: a snapshot every `interval` events,
    // held by a reader for the first half of the interval.
    sprofile::FrequencyProfile p = NewCoreProfile();
    std::optional<sprofile::FrequencyProfile> held;
    const uint64_t paged0 = p.paged_updates();
    uint64_t since = 0;
    std::vector<sprofile::FrequencyEntry> top;
    for (size_t i = 0; i < input.size(); i += chunk) {
      const size_t len = std::min(chunk, input.size() - i);
      {
        Span s(Kind::kCoreApplyBatch);
        p.ApplyBatch(input.subspan(i, len));
      }
      since += len;
      if (held && since >= interval / 2) {
        {
          Span s(Kind::kCoreTopK);
          const auto t = Clock::now();
          held->TopK(kTopK, &top);
          c.topk_us.push_back(Us(Clock::now() - t));
        }
        {
          Span s(Kind::kCoreHistogram);
          const auto t = Clock::now();
          (void)held->Histogram();
          c.histogram_us.push_back(Us(Clock::now() - t));
        }
        held.reset();
      }
      if (since >= interval) {
        Span s(Kind::kCoreSnapshot);
        const auto t = Clock::now();
        held.emplace(p.Snapshot());
        c.snapshot_us.push_back(Us(Clock::now() - t));
        since = 0;
      }
    }
    c.paged_frac = static_cast<double>(p.paged_updates() - paged0) / n;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintSummary(const char* label, const Summary& s, const char* unit) {
  std::printf("  %-14s mean %.4g %s, p50 %.4g %s, p%d %.4g %s (n=%zu)\n",
              label, s.mean, unit, s.median, unit, s.tail_pct, s.tail, unit,
              s.n);
}

// The end-to-end metrics of a set of rounds.
std::vector<Metric> EndToEndMetrics(const EndToEnd& m) {
  const Summary fresh = m.fresh_ms.Summarize();
  const Summary mode = m.mode_us.Summarize();
  const Summary topk = m.topk_us.Summarize();
  return {
      {"ingest_eps", Median(m.eps), "events/s"},
      {"fresh_p50_ms", fresh.median, "ms"},
      {"fresh_p99_ms", fresh.tail, "ms"},
      {"mode_mean_us", mode.mean, "us"},
      {"mode_p99_us", mode.tail, "us"},
      {"topk_mean_us", topk.mean, "us"},
      {"topk_p99_us", topk.tail, "us"},
      {"setup_s", Median(m.setup_s), "s"},
      {"mem_peak_mib", Median(m.mem_peak_mib), "MiB"},
  };
}

void PrintEndToEnd(const char* label, const EndToEnd& m) {
  const Summary eps = Summarize(m.eps);
  const Summary setup = Summarize(m.setup_s);
  std::printf("# %s: %zu rounds (%" PRIu64 " invalid)\n", label, m.eps.size(),
              m.invalid_rounds);
  std::printf("  %-14s median %.6g events/s over %zu rounds\n", "ingest_eps",
              eps.median, eps.n);
  PrintSummary("fresh_ms", m.fresh_ms.Summarize(), "ms");
  PrintSummary("mode_us", m.mode_us.Summarize(), "us");
  PrintSummary("topk_us", m.topk_us.Summarize(), "us");
  std::printf("  %-14s median %.6g s over %zu constructions\n", "setup_s",
              setup.median, setup.n);
  const Summary mem = Summarize(m.mem_peak_mib);
  std::printf("  %-14s median %.4g MiB over %zu rounds (max %.4g)\n",
              "mem_peak_mib", mem.median, mem.n,
              m.mem_peak_mib.empty()
                  ? 0.0
                  : *std::max_element(m.mem_peak_mib.begin(),
                                      m.mem_peak_mib.end()));
  std::printf("  %-14s %.3g (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              "failed_frac",
              m.attempted > 0 ? static_cast<double>(m.failed) / m.attempted : 0.0,
              m.failed, m.attempted);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Run.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<Event> events;
  Expected expected;         // what the drained engine must answer
  Expected closed_expected;  // the same input pushed once + closed probes
};

Inputs Prepare(const Workload& w, uint64_t seed) {
  Inputs in;
  in.events = GenerateInput(w, seed);
  std::vector<int64_t> once(kIds, 0);
  AddCounts(in.events, &once);
  std::vector<int64_t> closed = once;
  for (size_t k = 0; k < kClosedProbes; ++k) closed[ProbeId(k)] += 1;
  if (w.loop == Loop::kOpen) {
    // The open loop cycles the input for kServeRoundBatches batches.
    std::vector<int64_t> counts(kIds, 0);
    const size_t total = kServeRoundBatches * kPushChunk;
    const size_t cycles = total / in.events.size();
    for (uint32_t id = 0; id < kIds; ++id) counts[id] = once[id] * cycles;
    AddCounts(std::span<const Event>(in.events).first(total % in.events.size()),
              &counts);
    for (size_t k = 0; k < kServeProbes; ++k) counts[ProbeId(k)] += 1;
    in.expected = MakeExpected(std::move(counts));
    in.closed_expected = MakeExpected(std::move(closed));
  } else {
    in.expected = MakeExpected(std::move(closed));
  }
  return in;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  std::printf("# workload %.*s (seed %" PRIu64 ", %d s, trace %d)\n",
              static_cast<int>(w.name.size()), w.name.data(), args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("# why: %.*s\n", static_cast<int>(w.why.size()), w.why.data());
  const Inputs in = Prepare(w, args.seed);
  std::printf("# input: %zu events over %u ids, checksum %016" PRIx64 "\n",
              in.events.size(), kIds, InputChecksum(in.events));
  const bool open = w.loop == Loop::kOpen;

  EndToEnd untraced;
  std::optional<EndToEnd> traced;
  std::optional<EndToEnd> obs_off;
  std::optional<EndToEnd> obs_on;
  std::optional<Layers> layers;
  std::optional<OpenScratch> scratch;
  if (open) scratch.emplace();
  if (args.trace) {
    traced.emplace();
    obs_off.emplace();
    layers.emplace();
    if (open) obs_on.emplace();
  }

  const int64_t rss_kb = ResetPeakRss();
  if (rss_kb < 0) {
    std::fprintf(stderr, "perfbench: cannot reset VmHWM via /proc/self/clear_refs\n");
    return 1;
  }
  if (!open) {
    EndToEnd warmup;
    RunClosedRound(w, in.events, in.expected, &warmup, nullptr);
    untraced.attempted += warmup.attempted;
    untraced.failed += warmup.failed;
    untraced.mismatches += warmup.mismatches;
  }

  // Traced runs keep time for the core replays and, on the open loop, the
  // closed-loop obs comparison.
  const auto start = Clock::now();
  const double budget = args.trace ? 0.7 * args.seconds : args.seconds;
  const size_t cycle = args.trace && !open ? 3 : (args.trace ? 2 : 1);
  const size_t min_rounds = open ? cycle : 3 * cycle;
  for (size_t round = 0;
       round < min_rounds || Secs(Clock::now() - start) < budget; ++round) {
    const size_t kind = round % cycle;  // 0 untraced, 1 traced, 2 obs off
    EndToEnd* m = kind == 0 ? &untraced : (kind == 1 ? &*traced : &*obs_off);
    Layers* l = kind == 1 ? &*layers : nullptr;
    Tracer::Get().SetEnabled(kind == 1);
    obs::SetEnabled(kind != 2);
    if (open) {
      RunOpenRound(w, in.events, in.expected, m, l, &*scratch);
    } else {
      RunClosedRound(w, in.events, in.expected, m, l);
    }
  }
  Tracer::Get().SetEnabled(false);
  obs::SetEnabled(true);

  std::printf("# resident after input generation: %.4g MiB\n", rss_kb / 1024.0);
  PrintEndToEnd(args.trace ? "untraced rounds" : "rounds", untraced);
  if (untraced.eps.empty()) {
    std::fprintf(stderr, "perfbench: no round sustained the offered rate\n");
    return 1;
  }
  const Summary late = untraced.late_us.Summarize();
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  uint64_t mismatches = untraced.mismatches;
  std::vector<Metric> metrics = EndToEndMetrics(untraced);

  if (args.trace) {
    if (open) {
      // ingest_eps is pinned to the offered rate on the open loop, so obs
      // cost is compared on the same input pushed closed-loop.
      for (int i = 0; i < 6; ++i) {
        EndToEnd* m = i % 2 == 0 ? &*obs_off : &*obs_on;
        obs::SetEnabled(i % 2 != 0);
        RunClosedRound(w, in.events, in.closed_expected, m, nullptr);
      }
      obs::SetEnabled(true);
    }
    Tracer::Get().SetEnabled(true);
    const CoreFigures core = CoreReplay(in.events);
    Tracer::Get().SetEnabled(false);

    PrintEndToEnd("traced rounds", *traced);
    PrintEndToEnd("obs-off rounds", *obs_off);
    if (obs_on) PrintEndToEnd("obs-on closed rounds", *obs_on);
    for (const EndToEnd* m : {&*traced, &*obs_off}) {
      attempted += m->attempted;
      failed += m->failed;
      mismatches += m->mismatches;
    }
    if (obs_on) {
      attempted += obs_on->attempted;
      failed += obs_on->failed;
      mismatches += obs_on->mismatches;
    }

    const Layers& L = *layers;
    const double drained = L.Delta("sprofile_engine_events_drained");
    const double mev = drained / 1e6;
    const double window = L.window_s > 0 ? L.window_s : 1.0;
    const Summary apply = L.apply_batch_us.Summarize();
    const Summary drain = SummarizeBuckets(L.drain_bucket_deltas);
    const Summary pause = Summarize(L.publish_pause_us);
    const double obs_on_eps = Median(obs_on ? obs_on->eps : untraced.eps);
    const double obs_off_eps = Median(obs_off->eps);
    const double trace_overhead =
        open ? traced->mode_us.Summarize().mean /
                       untraced.mode_us.Summarize().mean -
                   1.0
             : 1.0 - Median(traced->eps) / Median(untraced.eps);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::vector<Metric> per_layer = {
        {"core.apply_batch_ns", core.apply_batch_ns, "ns/event"},
        {"core.add_remove_ns", core.add_remove_ns, "ns/event"},
        {"core.netted_frac",
         ratio(L.Delta("sprofile_batch_cancelled_events"), drained), "ratio"},
        {"core.sorted_frac",
         ratio(L.Delta("sprofile_batch_sorted"), L.Delta("sprofile_batch_replays")),
         "ratio"},
        {"core.snapshot_us", Median(core.snapshot_us), "us"},
        {"core.paged_frac", core.paged_frac, "ratio"},
        {"core.cow_faults_per_mev", ratio(L.Delta("sprofile_cow_faults"), mev),
         "1/Mevent"},
        {"core.topk_us", Median(core.topk_us), "us"},
        {"core.histogram_us", Median(core.histogram_us), "us"},
        {"engine.apply_batch_p50_us", apply.median, "us"},
        {"engine.apply_batch_tail_us", apply.tail, "us"},
        {"engine.ring_full_per_mev",
         ratio(L.Delta("sprofile_engine_ring_full_rejections"), mev), "1/Mevent"},
        {"engine.ring_retries_per_mev",
         ratio(L.Delta("sprofile_engine_ring_enqueue_retries"), mev), "1/Mevent"},
        {"engine.drain_batch_mean",
         ratio(drained, L.Delta("sprofile_engine_drain_batches")), "events"},
        {"engine.drain_batch_p50_us", drain.median / 1e3, "us"},
        {"engine.drain_batch_tail_us", drain.tail / 1e3, "us"},
        {"engine.drain_tail_ms", Median(L.drain_tail_ms), "ms"},
        {"engine.publishes_per_s", L.Delta("sprofile_engine_publishes") / window,
         "1/s"},
        {"engine.publish_pause_p50_us", pause.median, "us"},
        {"engine.publish_pause_tail_us", pause.tail, "us"},
        {"engine.snapshot_all_ns", L.snapshot_all_ns.Summarize().median, "ns"},
        {"engine.parks_per_s", L.Delta("sprofile_engine_parks") / window, "1/s"},
        {"engine.wakes_per_s", L.Delta("sprofile_engine_wakes") / window, "1/s"},
        {"engine.backlog_end", Median(untraced.backlog), "events"},
        {"obs.overhead_frac", 1.0 - ratio(obs_on_eps, obs_off_eps), "ratio"},
        {"obs.scrape_ms", Median(L.scrape_ms), "ms"},
        {"loadgen.late_p99_us", late.tail, "us"},
        {"trace.overhead_frac", trace_overhead, "ratio"},
    };

    const auto totals = Tracer::Get().Totals();
    std::array<double, trace::kLayers> self_ms{};
    std::printf("# spans (traced rounds + core replay): %" PRIu64
                " recorded, %zu stored\n",
                Tracer::Get().SpansRecorded(),
                static_cast<size_t>(std::min<uint64_t>(
                    Tracer::Get().SpansRecorded(), trace::kStoredSpanCap)));
    std::printf("  %-24s %-7s %10s %12s %12s\n", "span", "layer", "count",
                "total_ms", "self_ms");
    for (size_t i = 0; i < trace::kKindCount; ++i) {
      const trace::KindInfo& k = trace::kKinds[i];
      const size_t layer = static_cast<size_t>(k.layer);
      self_ms[layer] += totals[i].self_ns / 1e6;
      if (totals[i].count == 0) continue;
      std::printf("  %-24s %-7s %10" PRIu64 " %12.3f %12.3f\n", k.name,
                  trace::kLayerNames[layer], totals[i].count,
                  totals[i].total_ns / 1e6, totals[i].self_ns / 1e6);
    }
    std::printf("# self time per layer\n");
    for (size_t l = 0; l < trace::kLayers; ++l) {
      std::printf("  %-8s %12.3f ms\n", trace::kLayerNames[l], self_ms[l]);
      per_layer.push_back({std::string("layer.") + trace::kLayerNames[l] +
                               "_self_ms",
                           self_ms[l], "ms"});
    }
    std::printf("# tracing overhead: %s traced %.6g vs untraced %.6g (%+.2f%%)\n",
                open ? "mode_mean_us" : "ingest_eps",
                open ? traced->mode_us.Summarize().mean : Median(traced->eps),
                open ? untraced.mode_us.Summarize().mean : Median(untraced.eps),
                100.0 * trace_overhead);
    std::printf("# per-layer metrics\n");
    for (const Metric& x : per_layer) {
      std::printf("  %-30s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
    std::printf("  (apply_batch p%d over %zu calls, drain_batch p%d over %zu "
                "batches, publish_pause p%d over %zu pauses, late p%d over "
                "%zu)\n",
                apply.tail_pct, apply.n, drain.tail_pct, drain.n,
                pause.tail_pct, pause.n, late.tail_pct, late.n);
    if (!args.span_dump.empty()) {
      if (!Tracer::Get().Dump(args.span_dump)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.span_dump.c_str());
        return 1;
      }
      std::printf("# span dump: %s\n", args.span_dump.c_str());
    }
    metrics = std::move(per_layer);
  } else {
    std::printf("  %-14s p%d %.4g us (n=%zu)\n", "late_us", late.tail_pct,
                late.tail, late.n);
    std::printf("# end-to-end metrics\n");
    for (const Metric& x : metrics) {
      std::printf("  %-14s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
  }

  for (const Metric& x : metrics) {
    if (!std::isfinite(x.value)) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", x.name.c_str());
      return 1;
    }
  }
  const bool correct = mismatches == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ingest_zipf|ingest_storm|"
                 "serve_uniform> --seed <n> --seconds <1..600> --trace <0|1> "
                 "[--span-dump <path>]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::Run(args);
}
