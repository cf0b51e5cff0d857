#include "core/sched_state.h"

namespace hcrf::core {

void SchedState::Reset(const DDG& original,
                       const sched::LatencyOverrides& base, int ii,
                       bool use_incremental) {
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
  unscheduled.assign(static_cast<size_t>(g.NumSlots()), 0);
  prev_cycle.assign(static_cast<size_t>(g.NumSlots()), kNoCycle);
  num_unscheduled = 0;
  cluster_fu_use.assign(static_cast<size_t>(m.rf.clusters), 0);
  cluster_defs.assign(static_cast<size_t>(m.rf.clusters), 0);
  churning = false;
  incremental = use_incremental;
  // On small graphs the linear scan beats the heap's push/pop-per-event
  // bookkeeping (eject churn floods the heap with lazy entries); 96 slots
  // is comfortably past the crossover measured on the kernel and
  // synthetic suites.
  indexed_pick = incremental && g.NumSlots() > 96;
  pick_heap_ = {};
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
    unscheduled.resize(static_cast<size_t>(id) + 1, 0);
    prev_cycle.resize(static_cast<size_t>(id) + 1, kNoCycle);
  }
}

void SchedState::MarkUnscheduled(NodeId v) {
  if (!unscheduled[static_cast<size_t>(v)]) {
    unscheduled[static_cast<size_t>(v)] = 1;
    ++num_unscheduled;
    if (indexed_pick) {
      pick_heap_.emplace(priority[static_cast<size_t>(v)], v);
    }
  }
}

void SchedState::MarkScheduled(NodeId v) {
  if (unscheduled[static_cast<size_t>(v)]) {
    unscheduled[static_cast<size_t>(v)] = 0;
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
  if (indexed_pick) {
    // Discard entries invalidated since their push (scheduled again,
    // priority re-seeded by a later MarkUnscheduled, or tombstoned); the
    // first live entry is the answer and stays queued until it really
    // leaves the unscheduled set.
    while (!pick_heap_.empty()) {
      const auto& [prio, v] = pick_heap_.top();
      if (g.IsAlive(v) && unscheduled[static_cast<size_t>(v)] &&
          priority[static_cast<size_t>(v)] == prio) {
        return v;
      }
      pick_heap_.pop();
    }
    return kNoNode;
  }
  NodeId best = kNoNode;
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v) || !unscheduled[static_cast<size_t>(v)]) continue;
    if (best == kNoNode ||
        priority[static_cast<size_t>(v)] > priority[static_cast<size_t>(best)]) {
      best = v;
    }
  }
  return best;
}

}  // namespace hcrf::core
