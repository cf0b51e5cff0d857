// The benchmark's own arithmetic: nearest-rank percentiles, the
// ten-beyond sample rule for tail percentiles, failure accounting and the
// seeded random streams every workload draws its inputs from. Header-only
// so the self-tests (selftest.cpp) exercise exactly what the workloads use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` among `n` samples:
/// ceil(p/100 * n), clamped to [1, n]. `n` must be positive.
inline std::size_t Rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `sorted` must be ascending; 0 on an
/// empty set.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted[Rank(sorted.size(), p) - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

/// A percentile is reportable only when at least ten samples lie beyond it
/// (p99 therefore needs 1,000 samples, p99.9 needs 10,000).
inline bool Reportable(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

/// Latency summary of one sample set, in the samples' unit.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_ok = false;  ///< Reportable(n, 99).
};

inline Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = NearestRank(samples, 50);
  s.p99 = NearestRank(samples, 99);
  s.p99_ok = Reportable(samples.size(), 99);
  return s;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return NearestRank(v, 50);
}

/// Outcome accounting for one workload. A failure is a `busy` reply, an
/// error frame or failed item, a thrown call, or a result that fails a
/// check. A loop the engine reports unschedulable is a scheduling outcome,
/// not a failure: it is counted apart and never enters failed().
struct Tally {
  long attempted = 0;
  long busy = 0;
  long errors = 0;
  long thrown = 0;
  long check_failures = 0;
  long unscheduled = 0;

  long failed() const { return busy + errors + thrown + check_failures; }
  double FailedShare() const {
    return attempted > 0
               ? static_cast<double>(failed()) / static_cast<double>(attempted)
               : 0.0;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    busy += o.busy;
    errors += o.errors;
    thrown += o.thrown;
    check_failures += o.check_failures;
    unscheduled += o.unscheduled;
  }
};

/// 64-bit FNV-1a, the digest of request streams and report bytes.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
    EndField();
  }
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
    EndField();
  }
  std::uint64_t value() const { return h_; }

 private:
  void EndField() {
    h_ ^= 0xffu;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The seeded stream of one client (or one generator role): a Mersenne
/// twister keyed by (workload seed, stream id) through SplitMix64, so
/// streams are independent of each other and identical across runs with
/// the same seed.
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t stream_id)
      : rng_(Mix(seed ^ Mix(stream_id + 0x9e3779b97f4a7c15ull))) {}

  /// Uniform integer in [lo, hi].
  long Uniform(long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng_);
  }
  /// True with probability `p`.
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
  }

  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace perfbench
