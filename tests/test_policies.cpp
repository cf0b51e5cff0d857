// Tests of cluster selection: every ClusterPolicy reaches its selector
// through MirsOptions and schedules validly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "sched/validate.h"
#include "workload/kernels.h"

namespace hcrf::core {
namespace {

MachineConfig Machine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

/// The cluster of every original node (ids of the input loop survive into
/// the transformed graph).
std::vector<int> Clusters(const DDG& loop, const ScheduleResult& sr) {
  std::vector<int> clusters;
  for (const NodeId v : loop.AliveNodes()) {
    clusters.push_back(sr.schedule.ClusterOf(v));
  }
  return clusters;
}

TEST(Policies, EveryClusterPolicySchedulesValidly) {
  const workload::Suite kernels = workload::KernelSuite();
  ASSERT_FALSE(kernels.loops().empty());
  for (const std::string rf : {"4C32/1-1", "4C16S64/2-1"}) {
    const MachineConfig m = Machine(rf);
    int differs_rr = 0;
    int differs_ff = 0;
    for (const auto& loop : kernels.loops()) {
      std::vector<int> balanced;
      for (const ClusterPolicy p :
           {ClusterPolicy::kBalanced, ClusterPolicy::kRoundRobin,
            ClusterPolicy::kFirstFit}) {
        const std::string what =
            rf + " " + loop.ddg.name() + " " + std::string(ToString(p));
        MirsOptions opt;
        opt.cluster_policy = p;
        const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
        ASSERT_TRUE(sr.ok) << what;
        const auto vr =
            sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
        EXPECT_TRUE(vr.ok) << what << ": " << vr.error;
        const std::vector<int> clusters = Clusters(loop.ddg, sr);
        if (p == ClusterPolicy::kBalanced) {
          balanced = clusters;
        } else if (clusters != balanced) {
          ++(p == ClusterPolicy::kRoundRobin ? differs_rr : differs_ff);
        }
      }
    }
    // The enum must reach the selector: each ablation places at least one
    // kernel differently from the paper's heuristic.
    EXPECT_GT(differs_rr, 0) << rf;
    EXPECT_GT(differs_ff, 0) << rf;
  }
}

}  // namespace
}  // namespace hcrf::core
