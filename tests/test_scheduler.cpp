// Integration and property tests of MIRS_HC: every kernel loop must
// schedule on every organization family and pass the independent validator
// (dependences, resources, bank consistency, register capacities).
#include <gtest/gtest.h>

#include "core/mirs.h"
#include "ddg/mii.h"
#include "hwmodel/characterize.h"
#include "sched/validate.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"

namespace hcrf::core {
namespace {

MachineConfig Machine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

// ---------------------------------------------------------------------------
// Kernel x organization sweep: scheduling succeeds and validates.
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* rf;
};

class KernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweep, AllKernelsScheduleAndValidate) {
  const MachineConfig m = Machine(GetParam().rf);
  const workload::Suite kernel_suite = workload::KernelSuite();
  for (const auto& loop : kernel_suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, m);
    ASSERT_TRUE(sr.ok) << loop.ddg.name() << " on " << GetParam().rf;
    EXPECT_GE(sr.ii, sr.mii) << loop.ddg.name();
    const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
    EXPECT_TRUE(vr.ok) << loop.ddg.name() << " on " << GetParam().rf << ": "
                       << vr.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, KernelSweep,
    ::testing::Values(SweepCase{"S128"}, SweepCase{"S64"}, SweepCase{"S32"},
                      SweepCase{"2C64/1-1"}, SweepCase{"4C32/1-1"},
                      SweepCase{"1C64S64/4-2"}, SweepCase{"1C32S64/4-2"},
                      SweepCase{"2C32S32/3-1"}, SweepCase{"4C16S64/2-1"},
                      SweepCase{"4C32S16/1-1"}, SweepCase{"8C16S16/1-1"},
                      SweepCase{"8C32S16/1-1"}));

// ---------------------------------------------------------------------------
// Specific behaviours
// ---------------------------------------------------------------------------

TEST(MirsHC, MonolithicDaxpyAtMII) {
  const MachineConfig m = Machine("S128");
  const auto loop = workload::MakeDaxpy();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.ii, 1);  // 3 memory ops on 4 ports
  EXPECT_EQ(sr.stats.comm_ops, 0);
  EXPECT_EQ(sr.mem_ops_per_iter, 3);
}

TEST(MirsHC, HierarchicalInsertsLoadRStoreR) {
  const MachineConfig m = Machine("1C64S64/4-2");
  const auto loop = workload::MakeDaxpy();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  // Two loads feeding compute need LoadR; the store needs a StoreR.
  EXPECT_EQ(sr.stats.loadr_ops, 2);
  EXPECT_EQ(sr.stats.storer_ops, 1);
  EXPECT_EQ(sr.stats.move_ops, 0);
}

TEST(MirsHC, PureClusteredUsesMoves) {
  const MachineConfig m = Machine("4C32/1-1");
  const auto loop = workload::MakeDaxpy();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.stats.loadr_ops, 0);
  EXPECT_EQ(sr.stats.storer_ops, 0);
  // Cross-cluster traffic appears iff the loop was actually split.
  const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
  EXPECT_TRUE(vr.ok) << vr.error;
}

TEST(MirsHC, MemcpyLikeLoopNeedsNoCommOnHierarchical) {
  // b[i] = a[i]: load defines in shared, store reads shared -> no LoadR or
  // StoreR at all.
  DDG g("copy");
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, 0, 8};
  const NodeId l = g.AddNode(std::move(ld));
  Node st;
  st.op = OpClass::kStore;
  st.mem = MemRef{1, 0, 8};
  const NodeId s = g.AddNode(std::move(st));
  g.AddFlow(l, s, 0);

  const MachineConfig m = Machine("4C16S64/2-1");
  const ScheduleResult sr = MirsHC(g, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.stats.comm_ops, 0);
}

TEST(MirsHC, RecurrenceBoundLoopClassified) {
  const MachineConfig m = Machine("S128");
  const auto loop = workload::MakeFirstOrderRec();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.rec_mii, 8);
  EXPECT_EQ(sr.ii, 8);
  EXPECT_EQ(sr.bound, BoundClass::kRecurrence);
}

TEST(MirsHC, UnpipelinedDivisionRespected) {
  const MachineConfig m = Machine("S128");
  const auto loop = workload::MakeVdiv();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  // One unpipelined 17-cycle division on 8 FUs: ResMII 3.
  EXPECT_GE(sr.ii, 3);
}

TEST(MirsHC, TightRegisterFileStaysWithinCapacity) {
  // A wide loop with loop-carried lifetimes on a tiny monolithic RF: the
  // scheduler must either spill or stretch placements/II, and in all cases
  // the validator's capacity check must hold. (HRMS-style ordering often
  // compresses the carried lifetimes without spilling -- that is a
  // feature; the suite-level spill behaviour is asserted below.)
  DDG g("wide");
  std::vector<NodeId> adds;
  for (int i = 0; i < 6; ++i) {
    const NodeId ld = [&] {
      Node n;
      n.op = OpClass::kLoad;
      n.mem = MemRef{i, 0, 8};
      return g.AddNode(std::move(n));
    }();
    const NodeId a = g.AddNode(OpClass::kFAdd);
    g.AddFlow(ld, a, 0);
    adds.push_back(a);
  }
  NodeId acc = adds[0];
  for (size_t i = 1; i < adds.size(); ++i) {
    const NodeId n = g.AddNode(OpClass::kFAdd);
    g.AddFlow(acc, n, 0);
    g.AddFlow(adds[i], n, 4);  // loop-carried: long lifetimes
    acc = n;
  }

  MachineConfig tiny = Machine("S128");
  tiny.rf = RFConfig::Parse("S12");
  const ScheduleResult sr = MirsHC(g, tiny);
  ASSERT_TRUE(sr.ok);
  const auto vr = sched::Validate(sr.graph, sr.schedule, tiny, sr.overrides);
  EXPECT_TRUE(vr.ok) << vr.error;
}

TEST(MirsHC, SuiteSpillsOnSmallMonolithicRF) {
  // Across a workload slice, 32 registers cannot hold every loop's
  // pressure: spill memory ops must appear (the source of the extra
  // memory traffic in Table 6's S32 row), and never on Sinf.
  workload::SynthParams p;
  p.num_loops = 80;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  const MachineConfig s32 = Machine("S32");
  const MachineConfig sinf =
      MachineConfig::WithRF(RFConfig::Parse("Sinf"));
  long spills_s32 = 0;
  long spills_inf = 0;
  for (const auto& loop : suite.loops()) {
    const ScheduleResult a = MirsHC(loop.ddg, s32);
    if (a.ok) spills_s32 += a.stats.spill_loads + a.stats.spill_stores;
    const ScheduleResult b = MirsHC(loop.ddg, sinf);
    if (b.ok) spills_inf += b.stats.spill_loads + b.stats.spill_stores;
  }
  EXPECT_GT(spills_s32, 0);
  EXPECT_EQ(spills_inf, 0);
}

TEST(MirsHC, HierarchicalSpillAvoidsMemoryTraffic) {
  // Same wide loop on a hierarchical RF with tiny cluster banks but a
  // roomy shared bank: spilling should go StoreR/LoadR, not to memory.
  const auto loop = workload::MakeFir4();
  MachineConfig m = Machine("4C16S64/2-1");
  m.rf.cluster_regs = 8;  // squeeze the first level
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.stats.spill_loads + sr.stats.spill_stores, 0);
  EXPECT_EQ(sr.mem_ops_per_iter, 5);  // 4 loads + 1 store, unchanged
}

TEST(MirsHC, BindingPrefetchRaisesSharedPressureNotFailure) {
  const auto loop = workload::MakeVadd();
  const MachineConfig m = Machine("4C16S64/2-1");
  sched::LatencyOverrides ov;
  ov.producer_latency.assign(static_cast<size_t>(loop.ddg.NumSlots()), 0);
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    if (loop.ddg.node(v).op == OpClass::kLoad) {
      ov.producer_latency[static_cast<size_t>(v)] = m.lat.load_miss;
    }
  }
  const ScheduleResult sr = MirsHC(loop.ddg, m, {}, ov);
  ASSERT_TRUE(sr.ok);
  const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
  EXPECT_TRUE(vr.ok) << vr.error;
}

TEST(MirsHC, NonIterativeNeverBeatsIterative) {
  const MachineConfig m = Machine("1C32S64/4-2");
  MirsOptions non;
  non.iterative = false;
  workload::SynthParams p;
  p.num_loops = 60;
  const workload::Suite synth_suite = workload::PerfectSynthetic(p);
  int iter_failed = 0;
  for (const auto& loop : synth_suite.loops()) {
    const ScheduleResult a = MirsHC(loop.ddg, m);
    const ScheduleResult b = MirsHC(loop.ddg, m, non);
    if (!a.ok) {
      ++iter_failed;
      continue;
    }
    if (b.ok) {
      // The iterative scheduler may win; it should rarely lose, and on
      // average must not be worse. Check the weak per-loop property here;
      // the aggregate is covered by bench/table4.
      EXPECT_LE(a.ii, b.ii + 2) << loop.ddg.name();
    }
  }
  EXPECT_LE(iter_failed, 2);  // extreme-pressure outliers only
}

TEST(MirsHC, FailsGracefullyOnImpossibleII) {
  const auto loop = workload::MakeDot();
  MachineConfig m = Machine("S128");
  MirsOptions opt;
  opt.max_ii = 2;  // RecMII is 4: unreachable
  const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
  EXPECT_FALSE(sr.ok);
}

TEST(MirsHC, DeterministicAcrossRuns) {
  const MachineConfig m = Machine("4C16S64/2-1");
  workload::SynthParams p;
  p.num_loops = 20;
  const workload::Suite synth_suite = workload::PerfectSynthetic(p);
  for (const auto& loop : synth_suite.loops()) {
    const ScheduleResult a = MirsHC(loop.ddg, m);
    const ScheduleResult b = MirsHC(loop.ddg, m);
    ASSERT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.sc, b.sc);
    EXPECT_EQ(a.stats.comm_ops, b.stats.comm_ops);
  }
}

// ---------------------------------------------------------------------------
// Property sweep over the synthetic suite: validator is the oracle.
// ---------------------------------------------------------------------------

class SyntheticSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SyntheticSweep, ScheduleValidatesOn150Loops) {
  const MachineConfig m = Machine(GetParam().rf);
  workload::SynthParams p;
  p.num_loops = 150;
  int failures = 0;
  const workload::Suite synth_suite = workload::PerfectSynthetic(p);
  for (const auto& loop : synth_suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, m);
    if (!sr.ok) {
      ++failures;
      continue;
    }
    const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
    ASSERT_TRUE(vr.ok) << loop.ddg.name() << " on " << GetParam().rf << ": "
                       << vr.error;
  }
  // A small number of extreme-pressure loops may be unschedulable on the
  // tightest organizations (documented in EXPERIMENTS.md); everything that
  // schedules must validate.
  EXPECT_LE(failures, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SyntheticSweep,
    ::testing::Values(SweepCase{"S64"}, SweepCase{"S32"},
                      SweepCase{"2C32/1-1"}, SweepCase{"4C32/1-1"},
                      SweepCase{"1C32S64/4-2"}, SweepCase{"2C32S32/3-1"},
                      SweepCase{"4C16S16/2-1"}, SweepCase{"8C16S16/1-1"}));

}  // namespace
}  // namespace hcrf::core
