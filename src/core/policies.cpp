#include "core/policies.h"

#include <limits>

#include "sched/banks.h"

namespace hcrf::core {

using sched::BankId;

std::string_view ToString(ClusterPolicy p) {
  switch (p) {
    case ClusterPolicy::kBalanced: return "balanced";
    case ClusterPolicy::kRoundRobin: return "round-robin";
    case ClusterPolicy::kFirstFit: return "first-fit";
  }
  return "?";
}

int BalancedClusterSelector::Select(const SchedState& st, NodeId u) {
  const RFConfig& rf = st.m.rf;
  const int x = rf.clusters;
  const int ii = st.ii();
  const Node& n = st.g.node(u);
  const Window w = st.ComputeWindow(u);
  // The engine's scan rule, without its late bias for reloads: whether a
  // slot exists does not depend on the scan direction.
  const sched::ScanDir dir = w.Direction(/*late_biased=*/false);
  const ScanRange range = w.Range(ii, dir);

  // Per-cluster usage of FUs (cheap balance proxy) and def counts
  // (register-pressure proxy), maintained incrementally by the SchedState
  // assign/unassign funnels (this selector runs before every placement and
  // used to rescan every slot).
  const std::vector<int>& fu_use = st.cluster_fu_use;
  const std::vector<int>& defs = st.cluster_defs;

  double best_cost = std::numeric_limits<double>::max();
  int best = 0;
  for (int c = 0; c < x; ++c) {
    // Communication the placement would require.
    int comm = 0;
    for (const Edge& e : st.g.InEdges(u)) {
      if (e.kind != DepKind::kFlow || !st.sched->IsScheduled(e.src)) continue;
      const BankId def =
          sched::DefBank(st.g.node(e.src).op, st.sched->ClusterOf(e.src), rf);
      const BankId read = sched::ReadBank(n.op, c, rf);
      if (def != read) ++comm;
    }
    if (DefinesValue(n.op)) {
      const BankId def = sched::DefBank(n.op, c, rf);
      for (const Edge& e : st.g.OutEdges(u)) {
        if (e.kind != DepKind::kFlow || !st.sched->IsScheduled(e.dst)) {
          continue;
        }
        const Node& nc = st.g.node(e.dst);
        if (nc.op == OpClass::kMove) continue;
        const BankId read =
            sched::ReadBank(nc.op, st.sched->ClusterOf(e.dst), rf);
        if (def != read) ++comm;
      }
    }
    // Slot availability inside the dependence window.
    const bool free_slot =
        st.mrt->FindFirstSlot(sched::ResourceNeeds(n.op, c, 0, st.m),
                              range.lo, range.hi, dir) !=
        sched::ModuloReservationTable::kNoSlot;
    const double fu_cap = static_cast<double>(st.m.FusPerCluster()) * ii;
    const double reg_cap =
        rf.UnboundedClusterRegs() ? 1e9 : static_cast<double>(rf.cluster_regs);
    // A missing slot almost certainly means forcing and ejection, so it
    // outweighs a couple of communication operations; communication in turn
    // outweighs the soft balancing terms.
    const double cost = 3.0 * comm + 8.0 * (free_slot ? 0 : 1) +
                        fu_use[static_cast<size_t>(c)] / fu_cap +
                        defs[static_cast<size_t>(c)] / reg_cap;
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

int RoundRobinClusterSelector::Select(const SchedState& st, NodeId u) {
  (void)u;
  return (next_++) % st.m.rf.clusters;
}

int FirstFitClusterSelector::Select(const SchedState& st, NodeId u) {
  const Node& n = st.g.node(u);
  const Window w = st.ComputeWindow(u);
  // Deliberately not Window::Range: the top-down range is not clipped at
  // `late`, so a cluster whose only free row lies past the successors
  // still counts as a fit. Clipping it changes the ablation_cluster_sel
  // schedules and so the repro report.
  const bool bottom_up = w.has_succ && !w.has_pred;
  const int lo = bottom_up ? w.late - st.ii() + 1 : w.early;
  const int hi = bottom_up ? w.late : w.early + st.ii() - 1;
  for (int c = 0; c < st.m.rf.clusters; ++c) {
    if (st.mrt->FindFirstSlot(sched::ResourceNeeds(n.op, c, 0, st.m), lo, hi,
                              sched::ScanDir::kUp) !=
        sched::ModuloReservationTable::kNoSlot) {
      return c;
    }
  }
  return 0;
}

}  // namespace hcrf::core
