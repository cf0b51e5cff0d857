// Self-tests of the benchmark's own arithmetic: nearest-rank percentiles,
// the ten-beyond sample rule, failure accounting and seeded stream
// determinism. Run with `hcrf_perfbench --self-test` (or
// `python3 perfbench/run.py --self-test`).
#include <cstdio>
#include <numeric>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void TestNearestRank() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  Expect(NearestRank(v, 50) == 50, "p50 of 1..100 is 50");
  Expect(NearestRank(v, 99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(v, 100) == 100, "p100 is the maximum");
  Expect(NearestRank(v, 0.5) == 1, "tiny percentile is the minimum");
  Expect(NearestRank({7.0}, 99) == 7, "single sample");
  Expect(NearestRank({}, 50) == 0, "empty set reads 0");
  Expect(NearestRank({1, 2, 3, 4}, 50) == 2, "p50 of four is the 2nd");
  Expect(NearestRank({1, 2, 3, 4, 5}, 50) == 3, "p50 of five is the 3rd");
  const Summary s = Summarize({5, 1, 4, 2, 3});
  Expect(s.n == 5 && s.p50 == 3 && s.p99 == 5, "Summarize sorts");
  Expect(Median({3, 1, 2}) == 2, "Median");
}

void TestTenBeyond() {
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  Expect(Reportable(1000, 99), "p99 reportable at 1000");
  Expect(!Reportable(999, 99), "p99 not reportable at 999");
  Expect(Reportable(20, 50), "p50 reportable at 20");
  Expect(!Reportable(19, 50), "p50 not reportable at 19");
  Expect(Reportable(10000, 99.9), "p99.9 reportable at 10000");
  Expect(!Reportable(9999, 99.9), "p99.9 not reportable at 9999");
  Expect(SamplesBeyond(0, 99) == 0, "no samples, none beyond");
}

void TestTally() {
  Tally t;
  t.attempted = 200;
  t.busy = 2;
  t.errors = 1;
  t.thrown = 1;
  t.check_failures = 1;
  t.unscheduled = 50;
  Expect(t.failed() == 5, "busy, errors, thrown and checks are failures");
  Expect(t.FailedShare() == 5.0 / 200.0, "failed_share = failed / attempted");
  Tally u;
  u.attempted = 100;
  u.unscheduled = 100;
  Expect(u.failed() == 0 && u.FailedShare() == 0,
         "unschedulable loops are not failures");
  t.Merge(u);
  Expect(t.attempted == 300 && t.failed() == 5 && t.unscheduled == 150,
         "Merge adds every count");
  Expect(Tally{}.FailedShare() == 0, "nothing attempted reads 0");
}

void TestStreams() {
  const auto draw = [](std::uint64_t seed, std::uint64_t id) {
    Stream s(seed, id);
    Digest d;
    for (int i = 0; i < 1000; ++i) {
      d.Add(static_cast<std::uint64_t>(s.Uniform(0, 1 << 20)));
      d.Add(static_cast<std::uint64_t>(s.Chance(0.05)));
    }
    return d.value();
  };
  Expect(draw(42, 0) == draw(42, 0), "same seed, same stream");
  Expect(draw(42, 0) != draw(43, 0), "another seed, another stream");
  Expect(draw(42, 0) != draw(42, 1), "another stream id, another stream");
  Stream s(7, 3);
  long hits = 0;
  for (int i = 0; i < 100000; ++i) hits += s.Chance(0.05) ? 1 : 0;
  Expect(hits > 4500 && hits < 5500, "Chance(0.05) is near 5%");
  bool in_range = true;
  for (int i = 0; i < 10000; ++i) {
    const long v = s.Uniform(1, 16);
    in_range = in_range && v >= 1 && v <= 16;
  }
  Expect(in_range, "Uniform stays within bounds");
  Digest a, b;
  a.Add("ab");
  a.Add("c");
  b.Add("a");
  b.Add("bc");
  Expect(a.value() != b.value(), "digest separates fields");
}

}  // namespace

int RunSelfTests() {
  TestNearestRank();
  TestTenBeyond();
  TestTally();
  TestStreams();
  std::printf("self-test: %s (%d failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures;
}

}  // namespace perfbench
