// Tests of the performance-metric layer: the paper's formulas, the
// aggregation, metrics of batch-scheduled suites (determinism across
// widths, memory stalls, prefetching) and the MII sweep cache.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "memsim/prefetch.h"
#include "memsim/replay.h"
#include "perf/runner.h"
#include "service/session.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"

namespace hcrf::perf {
namespace {

// Schedules every loop of `suite` on `m` in one batch `threads` wide and
// derives each loop's metrics, in suite order; with `simulate_memory` its
// stall cycles come from replaying its memory accesses.
std::vector<LoopMetrics> ScheduleSuite(
    const workload::Suite& suite, const MachineConfig& m, int threads = 0,
    memsim::PrefetchMode prefetch = memsim::PrefetchMode::kNone,
    bool simulate_memory = false) {
  std::vector<service::BatchRequest> requests(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    const workload::Loop& loop = suite[i];
    // Non-owning alias: the suite outlives the batch.
    requests[i].loop = std::shared_ptr<const workload::Loop>(
        std::shared_ptr<const void>(), &loop);
    requests[i].machine = m;
    requests[i].overrides =
        memsim::ClassifyBindingPrefetch(loop.ddg, m, loop.trip, prefetch);
  }
  service::ServiceConfig config;
  config.threads = threads;
  const service::BatchReport report = service::RunBatch(requests, config);
  std::vector<LoopMetrics> out;
  for (size_t i = 0; i < suite.size(); ++i) {
    const core::ScheduleResult& sr = report.items[i].result;
    LoopMetrics& lm = out.emplace_back(MetricsFromResult(suite[i], sr));
    if (simulate_memory && lm.ok) {
      lm.stall_cycles = memsim::ReplayLoop(suite[i], sr, m).stall_cycles;
    }
  }
  return out;
}

TEST(Metrics, ExecCycleFormula) {
  // ExecCycles = II*(N + (SC-1)*E) + Stall.
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(100);
  loop.invocations = 3;
  workload::Suite suite;
  suite.Add(loop);
  const auto det = ScheduleSuite(suite, m, /*threads=*/1);
  ASSERT_EQ(det.size(), 1u);
  ASSERT_TRUE(det[0].ok);
  const long expected = static_cast<long>(det[0].ii) *
                        (300 + static_cast<long>(det[0].sc - 1) * 3);
  EXPECT_EQ(det[0].useful_cycles, expected);
  EXPECT_EQ(det[0].stall_cycles, 0);  // ideal memory by default
  EXPECT_EQ(det[0].mem_traffic, 300L * det[0].trf);
  EXPECT_EQ(det[0].trf, 3);  // 2 loads + 1 store, no spill on S128
}

TEST(Metrics, AggregateSumsAndClassifies) {
  std::vector<LoopMetrics> loops(3);
  loops[0].ok = true;
  loops[0].ii = 2;
  loops[0].mii = 2;
  loops[0].useful_cycles = 100;
  loops[0].bound = core::BoundClass::kMemPort;
  loops[1].ok = true;
  loops[1].ii = 5;
  loops[1].mii = 4;
  loops[1].useful_cycles = 50;
  loops[1].bound = core::BoundClass::kRecurrence;
  loops[2].ok = false;
  const SuiteMetrics sm = Aggregate(loops);
  EXPECT_EQ(sm.num_loops, 3);
  EXPECT_EQ(sm.failed, 1);
  EXPECT_EQ(sm.sum_ii, 7);
  EXPECT_EQ(sm.loops_at_mii, 1);
  EXPECT_DOUBLE_EQ(sm.PctAtMII(), 100.0 / 3.0);
  EXPECT_EQ(sm.ExecCycles(), 150);
  EXPECT_EQ(sm.bound_count[1], 1);  // MemPort
  EXPECT_EQ(sm.bound_count[2], 1);  // Rec
  EXPECT_EQ(sm.bound_cycles[1], 100);
}

TEST(Metrics, IPCUsesOriginalOps) {
  SuiteMetrics sm;
  sm.ops_executed = 600;
  sm.useful_cycles = 100;
  EXPECT_DOUBLE_EQ(sm.IPC(), 6.0);
}

TEST(BatchMetrics, ParallelMatchesSerial) {
  workload::SynthParams p;
  p.num_loops = 60;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  const MachineConfig m = MachineConfig::Baseline();
  const auto a = ScheduleSuite(suite, m, /*threads=*/1);
  const auto b = ScheduleSuite(suite, m, /*threads=*/8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << i;
    EXPECT_EQ(a[i].ii, b[i].ii) << i;
    EXPECT_EQ(a[i].sc, b[i].sc) << i;
    EXPECT_EQ(a[i].mem_traffic, b[i].mem_traffic) << i;
  }
}

TEST(BatchMetrics, RealMemoryAddsStalls) {
  workload::Suite suite;
  suite.Add(workload::MakeVadd(512));
  const MachineConfig m = MachineConfig::Baseline();
  const SuiteMetrics a = Aggregate(ScheduleSuite(suite, m));
  const SuiteMetrics b = Aggregate(ScheduleSuite(
      suite, m, 0, memsim::PrefetchMode::kNone, /*simulate_memory=*/true));
  EXPECT_EQ(a.stall_cycles, 0);
  EXPECT_GT(b.stall_cycles, 0);
  EXPECT_EQ(a.useful_cycles, b.useful_cycles);
}

TEST(BatchMetrics, PrefetchCutsStalls) {
  workload::Suite suite;
  suite.Add(workload::MakeVadd(512));
  const MachineConfig m = MachineConfig::Baseline();
  const SuiteMetrics a = Aggregate(ScheduleSuite(
      suite, m, 0, memsim::PrefetchMode::kNone, /*simulate_memory=*/true));
  const SuiteMetrics b = Aggregate(ScheduleSuite(
      suite, m, 0, memsim::PrefetchMode::kSelective,
      /*simulate_memory=*/true));
  EXPECT_LT(b.stall_cycles, a.stall_cycles);
}

// The MII sweep cache must key producer-latency overrides: a binding-
// prefetch run must never share an entry with — and so never be
// cross-served from — a base-latency run of the same loop and machine.
TEST(MiiCache, OverridesArePartOfTheKey) {
  // A latency no other test uses keeps this test's keys to itself (the
  // cache is process-wide; all assertions are deltas).
  MachineConfig m = MachineConfig::Baseline();
  m.lat.fadd = 6;
  workload::Suite suite;
  suite.Add(workload::MakeVadd(512));
  const memsim::PrefetchMode all = memsim::PrefetchMode::kAll;

  const MiiCacheStats s0 = GetMiiCacheStats();
  ScheduleSuite(suite, m, /*threads=*/1);
  const MiiCacheStats s1 = GetMiiCacheStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);

  // Non-empty overrides -> a distinct entry, not a hit on the plain one.
  ScheduleSuite(suite, m, /*threads=*/1, all);
  const MiiCacheStats s2 = GetMiiCacheStats();
  EXPECT_EQ(s2.misses, s1.misses + 1);
  EXPECT_EQ(s2.hits, s1.hits);

  // Rerunning with the same overrides is served from its own entry.
  ScheduleSuite(suite, m, /*threads=*/1, all);
  const MiiCacheStats s3 = GetMiiCacheStats();
  EXPECT_EQ(s3.misses, s2.misses);
  EXPECT_EQ(s3.hits, s2.hits + 1);
}

TEST(MiiCache, CapacityBoundsResidencyWithEviction) {
  const long old_cap = SetMiiCacheCapacity(4);
  const MiiCacheStats trimmed = GetMiiCacheStats();
  EXPECT_LE(trimmed.entries, 4);

  workload::Suite suite;
  suite.Add(workload::MakeDot());
  for (int i = 0; i < 6; ++i) {
    MachineConfig m = MachineConfig::Baseline();
    m.lat.fmul = 40 + i;  // six distinct latency tables -> six keys
    ScheduleSuite(suite, m, /*threads=*/1);
  }
  const MiiCacheStats after = GetMiiCacheStats();
  EXPECT_EQ(after.misses, trimmed.misses + 6);
  EXPECT_EQ(after.entries, 4);  // six inserts into a cap of four
  EXPECT_GE(after.evictions, trimmed.evictions + 2);
  SetMiiCacheCapacity(old_cap);
}

}  // namespace
}  // namespace hcrf::perf
