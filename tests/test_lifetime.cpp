// Unit tests for lifetime / MaxLive analysis, including wrap-around
// lifetimes, loop-carried distances, bank mapping and invariants.
#include <gtest/gtest.h>

#include "sched/lifetime.h"

namespace hcrf::sched {
namespace {

MachineConfig Mono() { return MachineConfig::WithRF(RFConfig::Parse("S128")); }

// Regression: MaxLiveOf used to index cluster_maxlive unchecked — UB for
// monolithic organizations, whose report has no cluster banks at all. The
// guard must fail loudly instead.
TEST(Lifetime, MaxLiveOfChecksBankBounds) {
  DDG g;
  const NodeId ld = g.AddNode(OpClass::kLoad);
  const NodeId add = g.AddNode(OpClass::kFAdd);
  g.AddFlow(ld, add, 0);
  PartialSchedule s(2);
  s.Assign(ld, {0, 0, 0, true});
  s.Assign(add, {2, 0, 0, true});

  const PressureReport pr = ComputePressure(g, s, Mono());
  EXPECT_TRUE(pr.cluster_maxlive.empty());
  EXPECT_EQ(pr.MaxLiveOf(kSharedBank), pr.shared_maxlive);
  EXPECT_DEATH(pr.MaxLiveOf(0), "MaxLiveOf");
  EXPECT_DEATH(pr.MaxLiveOf(-7), "MaxLiveOf");

  const PressureReport clustered = ComputePressure(
      g, s, MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1")));
  ASSERT_EQ(clustered.cluster_maxlive.size(), 4u);
  EXPECT_EQ(clustered.MaxLiveOf(3), clustered.cluster_maxlive[3]);
  EXPECT_DEATH(clustered.MaxLiveOf(4), "MaxLiveOf");
}

TEST(Lifetime, SimpleChain) {
  DDG g;
  const NodeId ld = g.AddNode(OpClass::kLoad);
  const NodeId add = g.AddNode(OpClass::kFAdd);
  g.AddFlow(ld, add, 0);
  const MachineConfig m = Mono();

  PartialSchedule s(2);
  s.Assign(ld, {0, 0, 0, true});
  s.Assign(add, {2, 0, 0, true});  // load latency 2

  const PressureReport pr = ComputePressure(g, s, m);
  // ld's value: [0, 2) -> covers rows 0 and 1, one register.
  // add's value has no consumer -> empty.
  EXPECT_EQ(pr.shared_maxlive, 1);
  ASSERT_EQ(pr.values.size(), 2u);
}

TEST(Lifetime, LongLifetimeNeedsMultipleRegisters) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 0);
  const MachineConfig m = Mono();

  PartialSchedule s(2);
  s.Assign(a, {0, 0, 0, true});
  s.Assign(b, {7, 0, 0, true});  // lifetime 7 at II=2 -> ceil(7/2)=4 copies
  const PressureReport pr = ComputePressure(g, s, m);
  EXPECT_EQ(pr.shared_maxlive, 4);
}

TEST(Lifetime, LoopCarriedDistanceExtends) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 3);  // consumed 3 iterations later
  const MachineConfig m = Mono();

  PartialSchedule s(4);
  s.Assign(a, {0, 0, 0, true});
  s.Assign(b, {4, 0, 0, true});
  // end = 4 + 3*4 = 16; lifetime 16 at II=4 -> 4 registers.
  const PressureReport pr = ComputePressure(g, s, m);
  EXPECT_EQ(pr.shared_maxlive, 4);
}

TEST(Lifetime, ClusterBanksSeparate) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("2C32/1-1"));
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  const NodeId c = g.AddNode(OpClass::kFAdd);
  const NodeId d = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 0);
  g.AddFlow(c, d, 0);

  PartialSchedule s(1);
  s.Assign(a, {0, 0, 0, true});
  s.Assign(b, {6, 0, 0, true});
  s.Assign(c, {0, 1, 0, true});
  s.Assign(d, {6, 1, 0, true});
  const PressureReport pr = ComputePressure(g, s, m);
  ASSERT_EQ(pr.cluster_maxlive.size(), 2u);
  EXPECT_EQ(pr.cluster_maxlive[0], 6);
  EXPECT_EQ(pr.cluster_maxlive[1], 6);
  EXPECT_EQ(pr.shared_maxlive, 0);
}

TEST(Lifetime, HierarchicalLoadLivesInShared) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("2C32S32/3-1"));
  DDG g;
  const NodeId ld = g.AddNode(OpClass::kLoad);
  Node lr;
  lr.op = OpClass::kLoadR;
  lr.inserted = true;
  const NodeId l = g.AddNode(std::move(lr));
  const NodeId add = g.AddNode(OpClass::kFAdd);
  g.AddFlow(ld, l, 0);
  g.AddFlow(l, add, 0);

  PartialSchedule s(2);
  s.Assign(ld, {0, 0, 0, true});
  s.Assign(l, {4, 1, 0, true});
  s.Assign(add, {6, 1, 0, true});
  const PressureReport pr = ComputePressure(g, s, m);
  // The shared bank is a decoupling buffer: the load's value occupies it
  // from ARRIVAL (cycle 2) to the LoadR read (cycle 4) -> 2 cycles at II=2
  // is one register. The LoadR's value lives [4,6) in cluster 1 (cluster
  // banks count from issue; no renaming).
  EXPECT_EQ(pr.shared_maxlive, 1);
  EXPECT_EQ(pr.cluster_maxlive[1], 1);
  EXPECT_EQ(pr.cluster_maxlive[0], 0);
}

TEST(Lifetime, InvariantsPinRegisters) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("2C32S32/3-1"));
  DDG g;
  const std::int32_t inv = g.AddInvariant();
  const NodeId mul = g.AddNode(OpClass::kFMul);
  g.AddInvariantUse(mul, inv);

  PartialSchedule s(3);
  s.Assign(mul, {0, 1, 0, true});
  const PressureReport pr = ComputePressure(g, s, m);
  // One register in cluster 1 (direct use) + master copy in shared.
  EXPECT_EQ(pr.cluster_maxlive[1], 1);
  EXPECT_EQ(pr.cluster_maxlive[0], 0);
  EXPECT_EQ(pr.shared_maxlive, 1);
}

TEST(Lifetime, UnscheduledInvariantUsersDoNotCount) {
  MachineConfig m = Mono();
  DDG g;
  const std::int32_t inv = g.AddInvariant();
  g.AddInvariantUse(g.AddNode(OpClass::kFMul), inv);
  PartialSchedule s(2);
  const PressureReport pr = ComputePressure(g, s, m);
  EXPECT_EQ(pr.shared_maxlive, 0);
}

TEST(Lifetime, OverridesLengthenPrefetchedLoads) {
  MachineConfig m = Mono();
  DDG g;
  const NodeId ld = g.AddNode(OpClass::kLoad);
  const NodeId add = g.AddNode(OpClass::kFAdd);
  g.AddFlow(ld, add, 0);

  LatencyOverrides ov;
  ov.producer_latency.assign(2, 0);
  ov.producer_latency[0] = m.lat.load_miss;  // bound to miss latency

  EXPECT_EQ(ProducerLatency(g, ld, m.lat, ov), m.lat.load_miss);
  EXPECT_EQ(ProducerLatency(g, add, m.lat, ov), m.lat.fadd);
  const Edge e = g.OutEdges(ld).front();
  EXPECT_EQ(DependenceLatency(g, e, m.lat, ov), m.lat.load_miss);
}

}  // namespace
}  // namespace hcrf::sched
