#include "core/sched_state.h"

#include <bit>

namespace hcrf::core {

void SchedState::Reset(const DDG& original,
                       const sched::LatencyOverrides& base, int ii,
                       bool incremental) {
  // The previous attempt only wrote eject counts for its own node ids, so
  // re-zeroing that prefix is enough (the full 4096-entry window would be
  // a 32 KB memset on every II attempt).
  const size_t prev_used = std::min(eject_count.size(), priority.size());
  if (eject_count.empty()) {
    eject_count.assign(4096, 0);
  } else {
    std::fill_n(eject_count.begin(), prev_used, 0);
  }

  g = original;
  overrides = base;
  if (mrt != nullptr) {
    mrt->Rebind(ii);
  } else {
    mrt = std::make_unique<sched::ModuloReservationTable>(m, ii);
  }
  if (sched != nullptr) {
    sched->Reset(ii);
  } else {
    sched = std::make_unique<sched::PartialSchedule>(ii);
  }
  priority.assign(static_cast<size_t>(g.NumSlots()), 0.0);
  unscheduled_.assign(Word(g.NumSlots()) + 1, 0);
  prev_cycle.assign(static_cast<size_t>(g.NumSlots()), kNoCycle);
  num_unscheduled = 0;
  cluster_fu_use.assign(static_cast<size_t>(m.rf.clusters), 0);
  cluster_defs.assign(static_cast<size_t>(m.rf.clusters), 0);
  churning = false;
  // Pressure is only ever consulted for bounded banks (the spill engine
  // and the final capacity check early-out otherwise), so organizations
  // with unbounded register files skip the tracker entirely.
  const RFConfig& rf = m.rf;
  const bool bounded = (rf.HasClusters() && !rf.UnboundedClusterRegs()) ||
                       (rf.HasSharedBank() && !rf.UnboundedSharedRegs());
  if (incremental && bounded) {
    pressure.Attach(g, *sched, m, overrides);
  } else {
    pressure.Detach();
  }
}

Window SchedState::ComputeWindow(NodeId u) const {
  Window w;
  const int ii = sched->ii();
  for (const Edge& e : g.InEdges(u)) {
    if (!sched->IsScheduled(e.src)) continue;
    const int es = sched->CycleOf(e.src) + LatOf(e) - e.distance * ii;
    if (!w.has_pred || es > w.early) w.early = es;
    w.has_pred = true;
  }
  for (const Edge& e : g.OutEdges(u)) {
    if (!sched->IsScheduled(e.dst)) continue;
    const int ls = sched->CycleOf(e.dst) - LatOf(e) + e.distance * ii;
    if (!w.has_succ || ls < w.late) w.late = ls;
    w.has_succ = true;
  }
  if (!w.has_pred) w.early = 0;
  return w;
}

void SchedState::GrowTo(NodeId id) {
  if (static_cast<size_t>(id) >= priority.size()) {
    priority.resize(static_cast<size_t>(id) + 1, 0.0);
    unscheduled_.resize(Word(id) + 1, 0);
    prev_cycle.resize(static_cast<size_t>(id) + 1, kNoCycle);
  }
}

void SchedState::MarkUnscheduled(NodeId v) {
  if (!IsUnscheduled(v)) {
    unscheduled_[Word(v)] |= std::uint64_t{1} << Bit(v);
    ++num_unscheduled;
  }
}

void SchedState::MarkScheduled(NodeId v) {
  if (IsUnscheduled(v)) {
    unscheduled_[Word(v)] &= ~(std::uint64_t{1} << Bit(v));
    --num_unscheduled;
  }
}

void SchedState::Unplace(NodeId v) {
  if (sched->IsScheduled(v)) {
    prev_cycle[static_cast<size_t>(v)] = sched->CycleOf(v);
    mrt->Remove(v);
    Unassign(v);
  }
}

NodeId SchedState::PickHighestPriority() const {
  NodeId best = kNoNode;
  double best_priority = 0.0;
  for (size_t w = 0; w < unscheduled_.size(); ++w) {
    for (std::uint64_t bits = unscheduled_[w]; bits != 0; bits &= bits - 1) {
      const NodeId v = static_cast<NodeId>(w * 64) + std::countr_zero(bits);
      if (!g.IsAlive(v)) continue;
      // Ascending ids and a strict `>`: the lowest id wins a tie.
      const double p = priority[static_cast<size_t>(v)];
      if (best == kNoNode || p > best_priority) {
        best = v;
        best_priority = p;
      }
    }
  }
  return best;
}

}  // namespace hcrf::core
