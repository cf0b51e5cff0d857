// Warm-start differential suite: every kernel loop, across the paper's
// three RF organization families, is perturbed (one load hardened toward
// its miss latency) and re-scheduled cold vs warm-started from the
// unperturbed base schedule. A warm schedule must pass full validation
// and its II must never exceed the cold II; a rejected seed must fall
// back to the cold path and produce bit-identical bytes (the fallback is
// counted in telemetry, never silent). Runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "machine/machine_config.h"
#include "sched/validate.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

MachineConfig OrgMachine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

NodeId FirstAliveLoad(const DDG& g) {
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (g.IsAlive(v) && g.node(v).op == OpClass::kLoad) return v;
  }
  return -1;
}

/// Hardens one load's producer latency (toward, at least past, its hit
/// latency). Warm II <= cold II holds on this sample (the first alive
/// load of each kernel) as a measured property, not a guarantee: a wider
/// sweep of single-load raises finds warm II above cold II (ROADMAP open
/// item 2).
sched::LatencyOverrides HardenLoad(const DDG& g, NodeId load,
                                   const MachineConfig& m) {
  sched::LatencyOverrides ov;
  ov.producer_latency.assign(static_cast<size_t>(g.NumSlots()), 0);
  ov.producer_latency[static_cast<size_t>(load)] =
      std::max(m.lat.load_miss, m.lat.load_hit + 1);
  return ov;
}

TEST(WarmStartTest, DifferentialOverCorpusAndOrgs) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  ASSERT_GT(kernels.size(), 0u);
  int perturbed = 0;
  int used = 0;
  for (const char* rf : {"4C16S64/2-1", "4C32/1-1", "S64"}) {
    const MachineConfig m = OrgMachine(rf);
    for (size_t i = 0; i < kernels.size(); ++i) {
      const DDG& ddg = kernels[i].ddg;
      core::MirsOptions opt;
      const core::ScheduleResult base = core::MirsHC(ddg, m, opt);
      if (!base.ok) continue;
      const NodeId load = FirstAliveLoad(ddg);
      if (load < 0) continue;
      const sched::LatencyOverrides ov = HardenLoad(ddg, load, m);

      const core::ScheduleResult cold = core::MirsHC(ddg, m, opt, ov);
      opt.warm_start = std::make_shared<const core::ScheduleResult>(base);
      const core::ScheduleResult warm = core::MirsHC(ddg, m, opt, ov);
      ++perturbed;

      EXPECT_TRUE(warm.warm.attempted) << rf << " loop " << i;
      EXPECT_EQ(cold.ok, warm.ok) << rf << " loop " << i;
      if (!warm.ok) continue;
      const sched::ValidationResult v =
          sched::Validate(warm.graph, warm.schedule, m, warm.overrides);
      EXPECT_TRUE(v.ok) << rf << " loop " << i << ": " << v.error;
      if (warm.warm.used) {
        ++used;
        EXPECT_LE(warm.ii, cold.ii) << rf << " loop " << i;
        EXPECT_GT(warm.warm.seeded, 0) << rf << " loop " << i;
      } else {
        // A fallback is never silent: it is flagged and its bytes are the
        // cold path's, bit for bit (telemetry is not serialized).
        EXPECT_TRUE(warm.warm.fallback) << rf << " loop " << i;
        EXPECT_EQ(io::DumpResult(cold), io::DumpResult(warm))
            << rf << " loop " << i;
      }
    }
  }
  EXPECT_GT(perturbed, 0);
  EXPECT_GT(used, 0);  // the seed path must actually engage on the corpus
}

TEST(WarmStartTest, SeedAboveMaxIiFallsBackToColdBytes) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  ASSERT_GT(kernels.size(), 0u);
  const DDG& ddg = kernels[0].ddg;
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  core::MirsOptions opt;
  const core::ScheduleResult cold = core::MirsHC(ddg, m, opt);
  ASSERT_TRUE(cold.ok);

  // An incompatible seed: its II exceeds this run's escalation cap, so
  // the seeded attempt is never even started.
  auto seed = std::make_shared<core::ScheduleResult>(cold);
  seed->ii = opt.max_ii + 1;
  opt.warm_start = seed;
  const core::ScheduleResult warm = core::MirsHC(ddg, m, opt);
  EXPECT_TRUE(warm.warm.attempted);
  EXPECT_TRUE(warm.warm.fallback);
  EXPECT_FALSE(warm.warm.used);
  EXPECT_EQ(io::DumpResult(cold), io::DumpResult(warm));
}

TEST(WarmStartTest, FailedSeedIsNeverAttempted) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  ASSERT_GT(kernels.size(), 0u);
  const DDG& ddg = kernels[0].ddg;
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  core::MirsOptions opt;
  const core::ScheduleResult cold = core::MirsHC(ddg, m, opt);
  ASSERT_TRUE(cold.ok);

  auto seed = std::make_shared<core::ScheduleResult>(cold);
  seed->ok = false;  // e.g. a failed near-key entry: not a usable seed
  opt.warm_start = seed;
  const core::ScheduleResult warm = core::MirsHC(ddg, m, opt);
  EXPECT_FALSE(warm.warm.attempted);
  EXPECT_FALSE(warm.warm.used);
  EXPECT_EQ(io::DumpResult(cold), io::DumpResult(warm));
}

TEST(WarmStartTest, IdenticalSeedIsAcceptedAtItsII) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  ASSERT_GT(kernels.size(), 0u);
  const DDG& ddg = kernels[0].ddg;
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  core::MirsOptions opt;
  const auto base =
      std::make_shared<const core::ScheduleResult>(core::MirsHC(ddg, m, opt));
  ASSERT_TRUE(base->ok);

  opt.warm_start = base;
  const core::ScheduleResult warm = core::MirsHC(ddg, m, opt);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.warm.attempted);
  EXPECT_TRUE(warm.warm.used);
  EXPECT_GT(warm.warm.seeded, 0);
  EXPECT_EQ(warm.ii, base->ii);
  const sched::ValidationResult v =
      sched::Validate(warm.graph, warm.schedule, m, warm.overrides);
  EXPECT_TRUE(v.ok) << v.error;
}

// Regression: warm-starting synth-stream-46 on 4C16S64/2-1 after raising
// node 0's producer latency to 24 aborted the process in DDG::AddEdge. An
// ejection had garbage-collected a StoreR chain node but kept the fix
// record whose original edge ended at it, and a later ejection restored
// that edge to the dead node. The seeded attempt now fails like any other
// and the run falls back to the cold walk's bytes.
TEST(WarmStartTest, CollectedChainNodeLeavesNoFixToUndo) {
  const workload::Suite& synth = workload::SharedSyntheticSuite();
  const DDG* ddg = nullptr;
  for (size_t i = 0; i < synth.size(); ++i) {
    if (synth[i].ddg.name() == "synth-stream-46") ddg = &synth[i].ddg;
  }
  ASSERT_NE(ddg, nullptr);
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  core::MirsOptions opt;
  const auto base =
      std::make_shared<const core::ScheduleResult>(core::MirsHC(*ddg, m, opt));
  ASSERT_TRUE(base->ok);
  sched::LatencyOverrides ov;
  ov.producer_latency.assign(static_cast<size_t>(ddg->NumSlots()), 0);
  ov.producer_latency[0] = 24;

  const core::ScheduleResult cold = core::MirsHC(*ddg, m, opt, ov);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.ii, 30);
  opt.warm_start = base;
  const core::ScheduleResult warm = core::MirsHC(*ddg, m, opt, ov);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.warm.attempted);
  EXPECT_TRUE(warm.warm.fallback);
  EXPECT_EQ(io::DumpResult(cold), io::DumpResult(warm));
}

}  // namespace
}  // namespace hcrf
