// perfbench_selftest — checks the benchmark's own machinery: the
// percentile helper, that the oracle check trips on one wrong expectation,
// and that one seed always generates the same input (printing each
// workload's input checksum). Exits 0 when every check holds.

#include <cinttypes>
#include <cstdio>
#include <span>
#include <vector>

#include "oracle.h"
#include "sprofile/sprofile.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentiles() {
  Expect(SupportedPercentile(64) == 84, "64 samples support p84, not p99");
  Expect(SupportedPercentile(999) == 98, "999 samples support p98");
  Expect(SupportedPercentile(1000) == 99, "1000 samples support p99");
  Expect(SupportedPercentile(1000000) == 99, "the tail stops at p99");
  Expect(SupportedPercentile(9) == -1, "9 samples support no tail");
  const Summary s = Summarize(Ramp(64));
  Expect(s.n == 64 && s.median == 32.0, "median of 1..64 is 32");
  Expect(s.tail_pct == 84 && s.tail == 54.0, "p84 of 1..64 is 54");
  Expect(SamplesBeyond(64, 84) == 10, "10 samples lie beyond p84 of 64");
  const Summary t = Summarize(Ramp(1000));
  Expect(t.tail_pct == 99 && t.tail == 990.0, "p99 of 1..1000 is 990");
  const Summary b = SummarizeBuckets({0, 0, 0, 50, 50});
  Expect(b.median == 8.0 && b.tail_pct == 90 && b.tail == 16.0,
         "bucketed p50/p90 read bucket upper bounds");
  Sampler r(100, 5);
  for (int i = 0; i < 10000; ++i) r.Add(i);
  Expect(r.values().size() == 100 && r.Summarize().n == 10000,
         "reservoir keeps its capacity and counts everything offered");
}

void TestOracleTrips() {
  // A small engine with real traffic: the check must pass on the true
  // counts and report exactly the one expectation made wrong.
  constexpr uint32_t m = 4096;
  sprofile::engine::ShardedProfiler eng(
      m, sprofile::engine::EngineOptions{.shards = 2});
  std::vector<Event> events;
  sprofile::Xoshiro256PlusPlus rng(7);
  for (int i = 0; i < 50000; ++i) {
    const auto id = static_cast<uint32_t>(rng.NextBounded(m));
    events.push_back(rng.NextBounded(4) == 0 ? Event::Remove(id) : Event::Add(id));
  }
  eng.ApplyBatch(events);
  eng.Drain();
  std::vector<int64_t> counts(m, 0);
  AddCounts(events, &counts);
  const Expected right = MakeExpected(counts);
  const CheckResult ok = CheckAgainst(eng, right);
  Expect(ok.mismatches == 0 && ok.attempted == m + 3,
         "oracle check passes on the true counts");
  Expected wrong = right;
  wrong.freq[1234] += 1;
  Expect(CheckAgainst(eng, wrong).mismatches == 1,
         "oracle check trips on one wrong frequency");
  Expected wrong_mode = right;
  wrong_mode.mode += 1;
  Expect(CheckAgainst(eng, wrong_mode).mismatches == 1,
         "oracle check trips on a wrong mode");
}

void TestInputsDeterministic() {
  for (const Workload& w : kWorkloads) {
    const uint64_t a = InputChecksum(GenerateInput(w, 1));
    const uint64_t b = InputChecksum(GenerateInput(w, 1));
    const uint64_t c = InputChecksum(GenerateInput(w, 2));
    std::printf("     %-14.*s seed 1 checksum %016" PRIx64 ", seed 2 %016" PRIx64
                "\n",
                static_cast<int>(w.name.size()), w.name.data(), a, c);
    Expect(a == b, "same seed, same input");
    Expect(a != c, "another seed, another input");
  }
  // The storm's share of cancelling pairs.
  const std::vector<Event> storm = GenerateInput(*FindWorkload("ingest_storm"), 3);
  size_t paired = 0;
  for (size_t i = 0; i + 1 < storm.size(); ++i) {
    if (storm[i].delta > 0 && storm[i + 1] == Event::Remove(storm[i].id)) {
      paired += 2;
      ++i;
    }
  }
  const double share = static_cast<double>(paired) / storm.size();
  std::printf("     ingest_storm pair share %.3f\n", share);
  Expect(share > 0.78 && share < 0.82, "about 80% of storm events are pairs");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestOracleTrips();
  perfbench::TestInputsDeterministic();
  std::printf("%s (%d failed)\n", perfbench::failures == 0 ? "PASS" : "FAIL",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
