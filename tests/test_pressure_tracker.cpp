// Differential tests for the incremental pressure tracker: randomized
// place / eject / spill-style mutation sequences replayed against
// ComputePressure ground truth at every step, across the pure-clustered,
// hierarchical (clustered and not) and monolithic organization families —
// plus engine-level A/B runs asserting the incremental and reference
// engines produce bit-identical schedules on every kernel and a synthetic
// slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/mirs.h"
#include "experiment/experiment.h"
#include "hwmodel/characterize.h"
#include "core/sched_state.h"
#include "io/hcl.h"
#include "machine/rf_config.h"
#include "sched/lifetime.h"
#include "sched/pressure_tracker.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

using core::SchedState;
using sched::ComputePressure;
using sched::kSharedBank;
using sched::PressureReport;

DDG RandomGraph(std::mt19937& rng, int nodes, int invariants) {
  DDG g("random");
  std::uniform_int_distribution<int> op_pick(0, 4);
  for (int i = 0; i < nodes; ++i) {
    switch (op_pick(rng)) {
      case 0: g.AddNode(OpClass::kFAdd); break;
      case 1: g.AddNode(OpClass::kFMul); break;
      case 2: g.AddNode(OpClass::kFDiv); break;
      case 3: g.AddNode(OpClass::kLoad); break;
      default: g.AddNode(OpClass::kStore); break;
    }
  }
  for (int i = 0; i < invariants; ++i) g.AddInvariant();
  std::uniform_int_distribution<int> node_pick(0, nodes - 1);
  std::uniform_int_distribution<int> dist_pick(0, 3);
  for (int e = 0; e < 2 * nodes; ++e) {
    const NodeId src = node_pick(rng);
    const NodeId dst = node_pick(rng);
    if (!DefinesValue(g.node(src).op)) continue;
    if (src == dst) {
      g.AddFlow(src, dst, 1 + dist_pick(rng));  // recurrence self-read
    } else {
      g.AddFlow(src, dst, dist_pick(rng));
    }
  }
  if (invariants > 0) {
    std::uniform_int_distribution<int> inv_pick(0, invariants - 1);
    for (int i = 0; i < nodes; ++i) {
      if (node_pick(rng) % 3 == 0) {
        g.AddInvariantUse(i, inv_pick(rng));
      }
    }
  }
  return g;
}

/// Tracker state must equal the ground truth: every bank's MaxLive and the
/// full ValueLifetime list.
void ExpectMatchesGroundTruth(SchedState& st, const MachineConfig& m,
                              int step) {
  const PressureReport truth =
      ComputePressure(st.g, *st.sched, m, st.overrides);
  const PressureReport got = st.pressure.Report();
  ASSERT_EQ(got.shared_maxlive, truth.shared_maxlive) << "step " << step;
  ASSERT_EQ(got.cluster_maxlive, truth.cluster_maxlive) << "step " << step;
  ASSERT_EQ(st.pressure.MaxLive(kSharedBank), truth.shared_maxlive)
      << "step " << step;
  for (int c = 0; c < m.rf.clusters; ++c) {
    ASSERT_EQ(st.pressure.MaxLive(c),
              truth.cluster_maxlive[static_cast<size_t>(c)])
        << "step " << step << " cluster " << c;
  }
  ASSERT_EQ(got.values.size(), truth.values.size()) << "step " << step;
  for (size_t i = 0; i < got.values.size(); ++i) {
    ASSERT_EQ(got.values[i].def, truth.values[i].def) << "step " << step;
    ASSERT_EQ(got.values[i].bank, truth.values[i].bank) << "step " << step;
    ASSERT_EQ(got.values[i].start, truth.values[i].start) << "step " << step;
    ASSERT_EQ(got.values[i].end, truth.values[i].end) << "step " << step;
    ASSERT_EQ(got.values[i].uses, truth.values[i].uses) << "step " << step;
  }
}

void RunDifferential(const std::string& rf_name, unsigned seed) {
  SCOPED_TRACE(rf_name);
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf_name));
  std::mt19937 rng(seed);
  const DDG original = RandomGraph(rng, 24, 3);

  // Binding-prefetch style overrides for a few producers: the hierarchical
  // shared-bank deposit time honours them.
  sched::LatencyOverrides overrides;
  overrides.producer_latency.assign(24, 0);
  overrides.producer_latency[3] = 9;
  overrides.producer_latency[7] = 5;

  SchedState st(m);
  const int ii = 5;
  st.Reset(original, overrides, ii);
  ASSERT_TRUE(st.pressure.attached());

  const int clusters = std::max(1, m.rf.clusters);
  std::uniform_int_distribution<int> cycle_pick(-9, 30);
  std::uniform_int_distribution<int> cluster_pick(0, clusters - 1);
  std::uniform_int_distribution<int> op_pick(0, 99);
  std::vector<NodeId> inserted;

  for (int step = 0; step < 400; ++step) {
    std::uniform_int_distribution<int> node_pick(0, st.g.NumSlots() - 1);
    const NodeId v = node_pick(rng);
    const int action = op_pick(rng);
    if (!st.g.IsAlive(v)) continue;
    if (action < 45) {
      // Place (or re-place after an eject).
      if (!st.sched->IsScheduled(v)) {
        st.Assign(v, {cycle_pick(rng), cluster_pick(rng), 0, true});
      }
    } else if (action < 70) {
      st.Unplace(v);
    } else if (action < 78 && DefinesValue(st.g.node(v).op)) {
      // Spill-style reroute: insert a spill copy fed by v, steal one of
      // v's consumer edges for it.
      Node copy;
      copy.op = m.rf.IsHierarchical() ? OpClass::kStoreR : OpClass::kLoad;
      copy.inserted = true;
      copy.spill = true;
      const NodeId s = st.g.AddNode(std::move(copy));
      st.GrowTo(s);
      inserted.push_back(s);
      st.g.AddFlow(v, s, 0);
      // A copy of the edge: RemoveEdge rewrites the list the view reads.
      for (const Edge e : st.g.FlowConsumers(v)) {
        if (e.dst != s && e.src != e.dst) {
          ASSERT_TRUE(st.g.RemoveEdge(e.src, e.dst, e.kind, e.distance));
          st.g.AddFlow(s, e.dst, e.distance);
          break;
        }
      }
    } else if (action < 86 && !inserted.empty()) {
      // Comm-undo style: tombstone an inserted node.
      const NodeId dead = inserted.back();
      inserted.pop_back();
      if (st.g.IsAlive(dead)) {
        st.Unplace(dead);
        st.MarkScheduled(dead);
        st.g.RemoveNode(dead);
      }
    } else if (action < 94) {
      // Spill-engine invariant un-pinning.
      const std::span<const std::int32_t> uses = st.g.InvariantUses(v);
      if (!uses.empty()) {
        st.g.RemoveInvariantUse(v, uses.front());
        st.pressure.ResyncInvariantReads(v);
      }
    } else {
      // Plain edge rewire of a random flow edge.
      const auto outs = st.g.FlowConsumers(v);
      if (!outs.empty() && outs.front().src != outs.front().dst) {
        const Edge e = outs.front();
        ASSERT_TRUE(st.g.RemoveEdge(e.src, e.dst, e.kind, e.distance));
        st.g.AddFlow(e.src, e.dst, e.distance + 1);
      }
    }
    ExpectMatchesGroundTruth(st, m, step);
  }
  // The HCRF_CHECK flavour of the same comparison.
  st.pressure.CrossValidate("test_pressure_tracker");
}

TEST(PressureTrackerDifferential, PureClustered) {
  RunDifferential("4C32/1-1", 1);
  RunDifferential("2C16/2-1", 2);
}

TEST(PressureTrackerDifferential, HierarchicalClustered) {
  RunDifferential("4C16S64/2-1", 3);
  RunDifferential("2C16S16/1-1", 4);
}

TEST(PressureTrackerDifferential, HierarchicalNonClustered) {
  RunDifferential("1C32S32/2-1", 5);
}

TEST(PressureTrackerDifferential, Monolithic) {
  RunDifferential("S64", 6);
  RunDifferential("S32", 7);
}

// A second attempt at a different II must fully reset tracker state.
TEST(PressureTracker, ReattachAcrossAttempts) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("S32"));
  std::mt19937 rng(11);
  const DDG original = RandomGraph(rng, 12, 1);
  SchedState st(m);
  for (int attempt = 0; attempt < 3; ++attempt) {
    st.Reset(original, {}, 3 + attempt);
    for (NodeId v = 0; v < st.g.NumSlots(); v += 2) {
      st.Assign(v, {attempt + static_cast<int>(v), 0, 0, true});
    }
    ExpectMatchesGroundTruth(st, m, attempt);
  }
}

// Unbounded organizations skip the tracker entirely (nothing ever reads
// pressure there).
TEST(PressureTracker, UnboundedOrganizationsDetach) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("Sinf"));
  std::mt19937 rng(13);
  const DDG original = RandomGraph(rng, 8, 0);
  SchedState st(m);
  st.Reset(original, {}, 4);
  EXPECT_FALSE(st.pressure.attached());
}

// ---------------------------------------------------------------------------
// Engine-level A/B: the incremental engine must produce bit-identical
// schedules to the reference path (EngineDriver::UseReferencePressure,
// which keeps the tracker detached and recomputes pressure at every spill
// check). It covers every kernel and a 64-loop synthetic slice on every
// register-bounded machine the paper reproduction schedules on, plus the
// small hierarchical 2C16S16/1-1.
// ---------------------------------------------------------------------------

/// 2C16S16/1-1, then the distinct register-bounded machines of the
/// experiment registry (deduplicated by their canonical `.hcl` machine
/// document). Unbounded organizations never attach the tracker, so both
/// paths are one there.
std::vector<MachineConfig> BoundedMachines() {
  std::vector<MachineConfig> out = {hw::ApplyCharacterization(
      MachineConfig::WithRF(RFConfig::Parse("2C16S16/1-1")),
      hw::RFModelMode::kPaperTable)};
  std::vector<std::string> seen = {io::DumpMachine(out.front())};
  for (const experiment::Experiment& e : experiment::Registry()) {
    for (const experiment::MachineVariant& mv : e.machines) {
      const RFConfig& rf = mv.machine.rf;
      if (!(rf.HasClusters() && !rf.UnboundedClusterRegs()) &&
          !(rf.HasSharedBank() && !rf.UnboundedSharedRegs())) {
        continue;
      }
      std::string doc = io::DumpMachine(mv.machine);
      if (std::find(seen.begin(), seen.end(), doc) != seen.end()) continue;
      seen.push_back(std::move(doc));
      out.push_back(mv.machine);
    }
  }
  return out;
}

void ExpectEngineIdentical(const workload::Suite& suite,
                           const MachineConfig& m) {
  for (size_t i = 0; i < suite.size(); ++i) {
    const DDG& g = suite[i].ddg;
    core::EngineDriver reference(g, m, {}, {});
    reference.UseReferencePressure();
    const core::ScheduleResult a = reference.Run();
    const core::ScheduleResult b = core::MirsHC(g, m);
    ASSERT_EQ(a.ok, b.ok) << g.name();
    if (!a.ok) continue;
    EXPECT_EQ(io::DumpResult(a), io::DumpResult(b)) << g.name();
  }
}

TEST(PressureTrackerEngine, BitIdenticalSchedules) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const workload::Suite synth =
      workload::SuiteSlice(workload::SharedSyntheticSuite(), 64);
  ASSERT_GT(kernels.size(), 0u);
  ASSERT_EQ(synth.size(), 64u);
  const std::vector<MachineConfig> machines = BoundedMachines();
  ASSERT_GE(machines.size(), 21u);
  for (const MachineConfig& m : machines) {
    SCOPED_TRACE(m.rf.Name());
    ExpectEngineIdentical(kernels, m);
    ExpectEngineIdentical(synth, m);
  }
}

}  // namespace
}  // namespace hcrf
