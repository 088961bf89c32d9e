// Percentiles as the benchmark reports them, and a fixed-memory sample
// buffer.
//
// Every latency is reported as its median, the highest percentile that
// still has at least kTailBeyond samples above it, and the sample count: a
// p99 read off 64 samples is the largest sample, not a percentile, so 64
// samples yield p84 instead.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace perfbench {

constexpr size_t kTailBeyond = 10;
// The end-to-end names say p99; a larger sample never buys a higher tail.
constexpr int kMaxTailPercentile = 99;

// Samples strictly above the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, int p) {
  return n - (static_cast<size_t>(p) * n + 99) / 100;
}

// Highest integer percentile (<= kMaxTailPercentile) with at least
// kTailBeyond samples beyond it; -1 when n is too small for any.
inline int SupportedPercentile(size_t n) {
  for (int p = kMaxTailPercentile; p >= 0; --p) {
    if (SamplesBeyond(n, p) >= kTailBeyond) return p;
  }
  return -1;
}

// Nearest-rank percentile of an ascending sample; p = 50 is the lower
// median.
inline double RankValue(const std::vector<double>& sorted, int p) {
  if (sorted.empty()) return 0.0;
  size_t rank = (static_cast<size_t>(p) * sorted.size() + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Summary {
  double mean = 0.0;
  double median = 0.0;
  double tail = 0.0;      // value at tail_pct; the median when tail_pct < 50
  int tail_pct = -1;      // -1: too few samples for any tail
  size_t n = 0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  s.median = RankValue(v, 50);
  s.tail_pct = SupportedPercentile(v.size());
  s.tail = s.tail_pct >= 50 ? RankValue(v, s.tail_pct) : s.median;
  return s;
}

inline double Median(std::vector<double> v) { return Summarize(std::move(v)).median; }

// Summary of a log2-bucketed histogram (bucket i holds values < 2^i), as
// the obs registry publishes it; values are bucket upper bounds.
inline Summary SummarizeBuckets(const std::vector<uint64_t>& buckets) {
  Summary s;
  for (uint64_t c : buckets) s.n += c;
  if (s.n == 0) return s;
  auto at = [&](int p) {
    size_t rank = std::max<size_t>(1, (static_cast<size_t>(p) * s.n + 99) / 100);
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (rank <= buckets[i]) return std::ldexp(1.0, static_cast<int>(i));
      rank -= buckets[i];
    }
    return std::ldexp(1.0, static_cast<int>(buckets.size()));
  };
  s.median = at(50);
  s.tail_pct = SupportedPercentile(s.n);
  s.tail = s.tail_pct >= 50 ? at(s.tail_pct) : s.median;
  return s;
}

// Up to `capacity` samples; past that, a uniform reservoir over everything
// offered. The buffer is allocated and touched at construction, so a
// benchmark that builds its samplers before resetting the peak-RSS mark
// never charges its own bookkeeping to the program's memory metric.
class Sampler {
 public:
  explicit Sampler(size_t capacity, uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    v_.resize(capacity_);
    v_.clear();
  }

  void Add(double x) {
    ++offered_;
    if (v_.size() < capacity_) {
      v_.push_back(x);
      return;
    }
    const uint64_t j = rng_.NextBounded(offered_);
    if (j < capacity_) v_[j] = x;
  }

  void Clear() {
    v_.clear();
    offered_ = 0;
  }

  uint64_t offered() const { return offered_; }
  const std::vector<double>& values() const { return v_; }
  // Percentiles come from the retained sample; n is everything offered.
  Summary Summarize() const {
    Summary s = perfbench::Summarize(v_);
    s.n = offered_;
    return s;
  }

 private:
  size_t capacity_;
  uint64_t offered_ = 0;
  std::vector<double> v_;
  sprofile::Xoshiro256PlusPlus rng_;
};

// A latency series over a run of rounds. The mean and median come from a
// sample of the whole run. The tail is the median, over windows of at least
// kWindowSamples consecutive samples (closed only at round ends), of each
// window's supported percentile: one disturbed stretch of a run moves one
// window, not the run's tail.
constexpr size_t kWindowSamples = 1000;

class LatencySeries {
 public:
  LatencySeries(size_t capacity, uint64_t seed)
      : all_(capacity, seed), window_(capacity, seed + 1) {}

  void Add(double x) {
    all_.Add(x);
    window_.Add(x);
  }

  void EndRound() {
    if (window_.offered() < kWindowSamples) return;
    const Summary w = window_.Summarize();
    tails_.push_back(w.tail);
    tail_pct_ = tail_pct_ < 0 ? w.tail_pct : std::min(tail_pct_, w.tail_pct);
    window_.Clear();
  }

  const Sampler& all() const { return all_; }

  // The mean, median and n of the whole run; the tail of its windows, or
  // of the whole run when no window filled.
  Summary Summarize() const {
    Summary s = all_.Summarize();
    if (!tails_.empty()) {
      s.tail = Median(tails_);
      s.tail_pct = tail_pct_;
    }
    return s;
  }

  size_t windows() const { return tails_.size(); }

 private:
  Sampler all_;
  Sampler window_;
  std::vector<double> tails_;
  int tail_pct_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
