// Tests of the policy layer: custom policies plug in through MirsOptions,
// and the engine respects their decisions.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "sched/validate.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"

namespace hcrf::core {
namespace {

MachineConfig Machine(const std::string& rf) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf));
  if (!m.rf.UnboundedClusterRegs() && !m.rf.UnboundedSharedRegs()) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

/// Pins every free node to cluster 0 and counts how often it was asked.
class PinToZeroSelector : public ClusterSelector {
 public:
  explicit PinToZeroSelector(std::shared_ptr<std::atomic<long>> calls)
      : calls_(std::move(calls)) {}
  std::string_view name() const override { return "pin-to-zero"; }
  int Select(const SchedState& st, NodeId u) override {
    (void)st;
    (void)u;
    ++*calls_;
    return 0;
  }

 private:
  std::shared_ptr<std::atomic<long>> calls_;
};

TEST(Policies, CustomSelectorIsConsultedAndRespected) {
  const MachineConfig m = Machine("4C32/1-1");
  const auto loop = workload::MakeDaxpy();
  auto calls = std::make_shared<std::atomic<long>>(0);
  MirsOptions opt;
  opt.cluster_selector = [calls] {
    return std::make_unique<PinToZeroSelector>(calls);
  };
  const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(sr.ok);
  EXPECT_GT(calls->load(), 0);
  // Everything on one cluster of a pure clustered machine: no moves.
  EXPECT_EQ(sr.stats.move_ops, 0);
  for (NodeId v = 0; v < sr.graph.NumSlots(); ++v) {
    if (!sr.graph.IsAlive(v)) continue;
    EXPECT_EQ(sr.schedule.ClusterOf(v), 0) << "node " << v;
  }
  const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
  EXPECT_TRUE(vr.ok) << vr.error;
}

/// Declines every register spill (invariant spilling may still fire).
class NeverSpillPolicy : public SpillVictimPolicy {
 public:
  std::string_view name() const override { return "never"; }
  const sched::ValueLifetime* Pick(
      const std::vector<const sched::ValueLifetime*>& candidates)
      const override {
    (void)candidates;
    return nullptr;
  }
};

TEST(Policies, CustomSpillPolicysuppressesLifetimeSpills) {
  const MachineConfig s32 = Machine("S32");
  workload::SynthParams p;
  p.num_loops = 40;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  MirsOptions opt;
  opt.spill_policy = std::make_shared<const NeverSpillPolicy>();
  for (const auto& loop : suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, s32, opt);
    if (!sr.ok) continue;
    // No store-side spill copies can exist when every victim is declined
    // (invariant reloads add loads only).
    EXPECT_EQ(sr.stats.spill_stores, 0) << loop.ddg.name();
    const auto vr = sched::Validate(sr.graph, sr.schedule, s32, sr.overrides);
    EXPECT_TRUE(vr.ok) << loop.ddg.name() << ": " << vr.error;
  }
}

/// Worst-case ordering: ascending node id, ignoring the dependence shape.
class IdOrderPolicy : public NodeOrderPolicy {
 public:
  std::string_view name() const override { return "id-order"; }
  std::vector<NodeId> Order(const DDG& g,
                            const MachineConfig& m) const override {
    (void)m;
    return g.AliveNodes();
  }
};

TEST(Policies, CustomOrderingStillSchedulesValidly) {
  const MachineConfig m = Machine("1C32S64/4-2");
  MirsOptions opt;
  opt.ordering = std::make_shared<const IdOrderPolicy>();
  for (const auto& loop :
       {workload::MakeDaxpy(), workload::MakeFir4(), workload::MakeDot()}) {
    const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
    ASSERT_TRUE(sr.ok) << loop.ddg.name();
    const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
    EXPECT_TRUE(vr.ok) << loop.ddg.name() << ": " << vr.error;
  }
}

}  // namespace
}  // namespace hcrf::core
