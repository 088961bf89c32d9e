// The oracle check every round ends with: per-id counts built from the
// generated events plus the probe adds, answered by the NaiveProfiler
// baseline, compared against the drained engine's Frequency of every id,
// Mode(), TopK(100) and Median().

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/naive_profiler.h"
#include "sprofile/event.h"

namespace perfbench {

constexpr uint32_t kTopK = 100;

struct Expected {
  std::vector<int64_t> freq;
  int64_t mode = 0;
  std::vector<int64_t> top;
  int64_t median = 0;
};

inline void AddCounts(std::span<const sprofile::Event> events,
                      std::vector<int64_t>* counts) {
  for (const sprofile::Event& e : events) (*counts)[e.id] += e.delta;
}

inline Expected MakeExpected(std::vector<int64_t> counts) {
  const sprofile::baselines::NaiveProfiler naive(counts);
  Expected x;
  x.mode = naive.ModeFrequency();
  x.top = naive.TopKFrequencies(kTopK);
  x.median = naive.MedianFrequency();
  x.freq = std::move(counts);
  return x;
}

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
};

// Works on anything with the engine's query surface.
template <typename Engine>
CheckResult CheckAgainst(const Engine& engine, const Expected& x) {
  CheckResult r;
  for (uint32_t id = 0; id < x.freq.size(); ++id) {
    r.mismatches += engine.Frequency(id) != x.freq[id];
  }
  r.mismatches += engine.Mode() != x.mode;
  r.mismatches += engine.TopK(kTopK) != x.top;
  r.mismatches += engine.Median() != x.median;
  r.attempted = x.freq.size() + 3;
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
