// Engine-driver accounting and bookkeeping invariants: the Budget_Ratio
// grant cap boundary, the force-and-eject path never leaving stale
// placements for garbage-collected nodes in a final schedule, the
// escalation walk's reused AttemptContext behaving like a fresh one, the
// priority pick agreeing with a brute-force scan, and the MII a direct
// call reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/mirs.h"
#include "core/sched_state.h"
#include "ddg/mii.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "sched/ordering.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

// Mirrors the manifest/bench construction: paper-notation RF applied to the
// baseline resources, run through the hardware model when register counts
// are bounded.
MachineConfig OrgMachine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

// Without a precomputed MII the engine takes RecMII from the ordering's
// recurrence sets rather than walking the SCCs a second time; the bounds
// it reports must be ComputeMII's, on every paper organization.
TEST(EngineMii, DirectCallReportsComputeMii) {
  for (const char* org :
       {"S128", "4C32", "1C64S64", "2C32S64", "4C16S64", "8C8S64"}) {
    SCOPED_TRACE(org);
    const MachineConfig m = OrgMachine(org);
    // The kernels schedule; the synthetic loops stop at the MII (max_ii 0
    // admits no attempt), which is all this test reads.
    core::MirsOptions stop_at_mii;
    stop_at_mii.max_ii = 0;
    for (const auto& [suite, opt] :
         {std::pair{&workload::SharedKernelSuite(), core::MirsOptions{}},
          std::pair{&workload::SharedSyntheticSuite(), stop_at_mii}}) {
      for (const workload::Loop& loop : suite->loops()) {
        const MIIInfo want = ComputeMII(loop.ddg, m);
        const core::ScheduleResult r = core::MirsHC(loop.ddg, m, opt);
        ASSERT_EQ(r.res_mii, want.res_mii) << loop.ddg.name();
        ASSERT_EQ(r.rec_mii, want.rec_mii) << loop.ddg.name();
        ASSERT_EQ(r.mii, want.MII()) << loop.ddg.name();
      }
    }
  }
}

TEST(BudgetAccount, GrantClampsToTheCapHeadroom) {
  core::BudgetAccount b;
  b.Start(10.0, 5.0);
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 3.0);  // plenty of headroom
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 2.0);  // clamped: only 2 of 5 remain
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 0.0);  // cap reached
  EXPECT_DOUBLE_EQ(b.granted, 5.0);     // never overshoots grant_cap
  EXPECT_DOUBLE_EQ(b.remaining, 15.0);  // initial 10 + the 5 granted
  b.Spend(1.0);
  EXPECT_DOUBLE_EQ(b.remaining, 14.0);
}

TEST(BudgetAccount, ExactCapGrantThenNothing) {
  core::BudgetAccount b;
  b.Start(0.0, 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(6.0), 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(0.5), 0.0);
  EXPECT_DOUBLE_EQ(b.granted, 6.0);
}

// Regression: on pure clustered organizations, force-placing a Move could
// eject a victim whose ejection cascade dissolved the very chain the Move
// belonged to (comm GC tombstones it) — and the tombstone was then placed
// anyway. The stale placement serialized as a "placement of undefined
// node" that the strict result parser (and so the schedule cache) rejects.
TEST(EngineDriver, NoPlacementsForTombstonedNodes) {
  const workload::Suite& suite = workload::SharedSyntheticSuite();
  const workload::Loop* loop = nullptr;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].ddg.name() == "synth-stream-138") loop = &suite[i];
  }
  ASSERT_NE(loop, nullptr);
  const MachineConfig m = hw::ApplyCharacterization(
      MachineConfig::WithRF(RFConfig::Parse("4C32")),
      hw::RFModelMode::kPaperTable);
  const core::ScheduleResult r = core::MirsHC(loop->ddg, m, {});
  ASSERT_TRUE(r.ok);
  for (NodeId v = 0; v < r.graph.NumSlots(); ++v) {
    EXPECT_FALSE(r.schedule.IsScheduled(v) && !r.graph.IsAlive(v))
        << "tombstoned node " << v << " still scheduled";
  }
  // The canonical dump must survive its own strict re-parse bit-exactly —
  // the property every schedule-cache hit depends on.
  const std::string dump = io::DumpResult(r);
  EXPECT_EQ(io::DumpResult(io::ParseResult(dump)), dump);
}

// The serial walk reuses one AttemptContext across every II it tries, so
// an attempt on a context dirtied by a failed attempt (mid-cascade
// ejections, inserted comm/spill nodes, a spent budget) must behave exactly
// like one on a fresh context: same outcome, same per-attempt effort, same
// schedule.
TEST(EngineDriver, ReusedContextMatchesAFreshOne) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  const sched::LatencyOverrides no_overrides;
  const core::MirsOptions opt;
  int exercised = 0;
  for (size_t i = 0; i < kernels.size(); ++i) {
    const DDG& ddg = kernels[i].ddg;
    const core::ScheduleResult probe = core::MirsHC(ddg, m, opt);
    ASSERT_TRUE(probe.ok);
    if (probe.ii == probe.mii) continue;  // needs a failed first attempt
    const std::string what = ddg.name();
    const MIIInfo mii = ComputeMII(ddg, m);
    const std::vector<NodeId> order = sched::HrmsOrder(ddg, m.lat);

    core::AttemptContext reused(ddg, m, opt, no_overrides, order);
    ASSERT_NE(reused.TryII(mii.MII()), core::AttemptStatus::kScheduled)
        << what;
    const core::ScheduleStats dirty = reused.instr().stats();
    ASSERT_EQ(reused.TryII(probe.ii), core::AttemptStatus::kScheduled) << what;
    core::AttemptContext fresh(ddg, m, opt, no_overrides, order);
    ASSERT_EQ(fresh.TryII(probe.ii), core::AttemptStatus::kScheduled) << what;
    const core::ScheduleStats& once = fresh.instr().stats();
    const core::ScheduleStats& twice = reused.instr().stats();
    EXPECT_EQ(twice.attempts - dirty.attempts, once.attempts) << what;
    EXPECT_EQ(twice.ejections - dirty.ejections, once.ejections) << what;
    EXPECT_EQ(twice.chains_built - dirty.chains_built, once.chains_built)
        << what;
    EXPECT_EQ(twice.spills_inserted - dirty.spills_inserted,
              once.spills_inserted)
        << what;

    // The stats block differs by construction (the reused context carries
    // the failed attempt's effort); everything else must match.
    core::ScheduleResult a = reused.Finalize(mii, probe.ii);
    core::ScheduleResult b = fresh.Finalize(mii, probe.ii);
    a.stats = {};
    b.stats = {};
    EXPECT_EQ(io::DumpResult(a), io::DumpResult(b)) << what;
    ++exercised;
  }
  // The hierarchical proposal's kernel runs are ejection-heavy; at least
  // one loop must escalate past its MII or this test checks nothing.
  EXPECT_GT(exercised, 0);
}

// A failed attempt names the check that ended it, so the `attempt` span
// explains a missed II without a rerun. On the hierarchical proposal four
// kernels miss their MII: two livelock in eject ping-pong, two find a node
// that cannot be forced into a slot. A second fresh context names the same
// cause.
TEST(EngineDriver, FailedAttemptNamesItsCause) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  const core::MirsOptions opt;
  std::string causes;
  for (size_t i = 0; i < kernels.size(); ++i) {
    const DDG& ddg = kernels[i].ddg;
    const core::ScheduleResult probe = core::MirsHC(ddg, m, opt);
    ASSERT_TRUE(probe.ok);
    if (probe.ii == probe.mii) continue;
    const int mii = ComputeMII(ddg, m).MII();
    const std::vector<NodeId> order = sched::HrmsOrder(ddg, m.lat);
    core::AttemptContext ctx(ddg, m, opt, {}, order);
    const core::AttemptStatus cause = ctx.TryII(mii);
    core::AttemptContext again(ddg, m, opt, {}, order);
    EXPECT_EQ(again.TryII(mii), cause) << ddg.name();
    causes += ddg.name() + "=" + std::string(core::ToString(cause)) + " ";
  }
  EXPECT_EQ(causes, "hydro-lk1=churn norm2=place vdiv=place fir4=churn ");
}

// The bitset pick against a brute-force scan: the live, unscheduled node
// with the highest priority, the lowest id winning ties. Random mark /
// unmark / reprioritize / tombstone / grow sequences with few distinct
// priorities (so ties are common), on graphs starting below and above
// 96 slots and growing across 64-bit word boundaries.
TEST(SchedStatePick, MatchesBruteForceLinearScan) {
  const MachineConfig m = MachineConfig::Baseline();
  for (const int start : {5, 63, 64, 95, 97, 200}) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(start));
    DDG original("pick");
    for (int i = 0; i < start; ++i) original.AddNode(OpClass::kFAdd);
    core::SchedState st(m);
    st.Reset(original, {}, 4);
    std::vector<char> marked(static_cast<size_t>(start), 0);
    std::uniform_int_distribution<int> prio_pick(0, 2);
    const auto brute_force = [&]() {
      NodeId best = kNoNode;
      for (NodeId v = 0; v < st.g.NumSlots(); ++v) {
        if (!st.g.IsAlive(v) || !marked[static_cast<size_t>(v)]) continue;
        if (best == kNoNode || st.priority[static_cast<size_t>(v)] >
                                   st.priority[static_cast<size_t>(best)]) {
          best = v;
        }
      }
      return best;
    };
    for (int step = 0; step < 3000; ++step) {
      const NodeId v = static_cast<NodeId>(rng() % st.g.NumSlots());
      const size_t i = static_cast<size_t>(v);
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2:  // mark, re-seeding the priority as the engine does
          if (!marked[i]) st.priority[i] = prio_pick(rng);
          st.MarkUnscheduled(v);
          marked[i] = 1;
          break;
        case 3:
        case 4:
          st.MarkScheduled(v);
          marked[i] = 0;
          break;
        case 5:
          st.priority[i] = prio_pick(rng);
          break;
        case 6:  // tombstone: a marked dead node must never be picked
          st.g.RemoveNode(v, /*force=*/true);
          break;
        default: {  // grow: an inserted node joins the list
          Node n;
          n.op = OpClass::kFAdd;
          n.inserted = true;
          const NodeId id = st.g.AddNode(std::move(n));
          st.GrowTo(id);
          marked.resize(static_cast<size_t>(id) + 1, 0);
          st.priority[static_cast<size_t>(id)] = prio_pick(rng);
          st.MarkUnscheduled(id);
          marked[static_cast<size_t>(id)] = 1;
          break;
        }
      }
      ASSERT_EQ(st.PickHighestPriority(), brute_force())
          << "start " << start << " step " << step;
      ASSERT_EQ(st.IsUnscheduled(v), marked[i] != 0)
          << "start " << start << " step " << step;
      ASSERT_EQ(st.num_unscheduled,
                std::count(marked.begin(), marked.end(), 1))
          << "start " << start << " step " << step;
    }
    EXPECT_GT(st.g.NumSlots(), 256) << "start " << start;
  }
}

}  // namespace
}  // namespace hcrf
