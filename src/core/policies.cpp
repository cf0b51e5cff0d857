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

int BalancedClusterSelector::Select(const SchedState& st, NodeId u,
                                    std::optional<Window>& window) {
  const RFConfig& rf = st.m.rf;
  const int x = rf.clusters;
  const int ii = st.ii();
  const OpClass op = st.g.node(u).op;
  const bool defines = DefinesValue(op);

  // One walk of u's edges gives the dependence window and the banks its
  // scheduled neighbours use: the def bank of each flow producer and the
  // read bank of each flow consumer (moves excepted), counted per bank
  // (index 0 = shared, c + 1 = cluster c).
  const auto slot = [](BankId bank) {
    return static_cast<size_t>(bank == sched::kSharedBank ? 0 : bank + 1);
  };
  const size_t banks = static_cast<size_t>(x) + 1;
  bank_uses_.assign(2 * banks, 0);
  int* const producer_defs = bank_uses_.data();
  int* const consumer_reads = bank_uses_.data() + banks;
  int producers = 0;
  int consumers = 0;
  const Window& w = window.emplace(st.WalkWindow(
      u,
      [&](const Edge& e) {
        if (e.kind != DepKind::kFlow) return;
        ++producers;
        ++producer_defs[slot(sched::DefBank(st.g.node(e.src).op,
                                            st.sched->ClusterOf(e.src), rf))];
      },
      [&](const Edge& e) {
        if (!defines || e.kind != DepKind::kFlow) return;
        const OpClass consumer = st.g.node(e.dst).op;
        if (consumer == OpClass::kMove) return;
        ++consumers;
        ++consumer_reads[slot(
            sched::ReadBank(consumer, st.sched->ClusterOf(e.dst), rf))];
      }));
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
  const double fu_cap = static_cast<double>(st.m.FusPerCluster()) * ii;
  const double reg_cap =
      rf.UnboundedClusterRegs() ? 1e9 : static_cast<double>(rf.cluster_regs);

  double best_cost = std::numeric_limits<double>::max();
  int best = 0;
  for (int c = 0; c < x; ++c) {
    // Communication the placement would require: every producer whose def
    // bank is not the bank u reads on c, every consumer not reading the
    // bank u defines on c.
    int comm = producers - producer_defs[slot(sched::ReadBank(op, c, rf))];
    if (defines) {
      comm += consumers - consumer_reads[slot(sched::DefBank(op, c, rf))];
    }
    // A missing slot almost certainly means forcing and ejection, so it
    // outweighs a couple of communication operations; communication in turn
    // outweighs the soft balancing terms.
    const auto cost_of = [&](bool free_slot) {
      return 3.0 * comm + 8.0 * (free_slot ? 0 : 1) +
             fu_use[static_cast<size_t>(c)] / fu_cap +
             defs[static_cast<size_t>(c)] / reg_cap;
    };
    // Floating-point addition is monotone and the balancing terms are not
    // negative (a NaN cost never wins), so the communication term, then the
    // cost with a free slot, bound the cost from below: when even the bound
    // loses, the rest of the cost and the slot scan are moot.
    if (!(3.0 * comm < best_cost)) continue;
    const double if_free = cost_of(true);
    if (!(if_free < best_cost)) continue;
    // Slot availability inside the dependence window.
    const bool free_slot =
        st.mrt->FindFirstSlot(sched::ResourceNeeds(op, c, 0, st.m), range.lo,
                              range.hi, dir) !=
        sched::ModuloReservationTable::kNoSlot;
    const double cost = free_slot ? if_free : cost_of(false);
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

int RoundRobinClusterSelector::Select(const SchedState& st, NodeId /*u*/,
                                      std::optional<Window>& /*window*/) {
  return (next_++) % st.m.rf.clusters;
}

int FirstFitClusterSelector::Select(const SchedState& st, NodeId u,
                                    std::optional<Window>& window) {
  const Node& n = st.g.node(u);
  const Window& w = window.emplace(st.ComputeWindow(u));
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
