#include "core/sched_state.h"

#include <bit>

namespace hcrf::core {

void SchedState::Reset(const DDG& original,
                       const sched::LatencyOverrides& base, int ii,
                       bool incremental) {
  // The previous attempt only wrote eject counts for its own node ids, so
  // re-zeroing that prefix is enough (the full window would be a 32 KB
  // memset on every II attempt).
  const size_t prev_used = std::min(eject_count.size(), priority.size());
  if (eject_count.empty()) {
    eject_count.assign(kEjectWindow, 0);
  } else {
    std::fill_n(eject_count.begin(), prev_used, 0);
  }

  g = original;
  overrides = base;
  if (mrt != nullptr) {
    mrt->Rebind(m, ii);
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
  pick_adds_.reserve(kPickAdds);
  pick_cached_ = false;
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
    if (pick_cached_) {
      if (pick_adds_.size() < kPickAdds) {
        pick_adds_.push_back(v);
      } else {
        pick_cached_ = false;
      }
    }
  }
}

void SchedState::MarkScheduled(NodeId v) {
  if (IsUnscheduled(v)) {
    unscheduled_[Word(v)] &= ~(std::uint64_t{1} << Bit(v));
    --num_unscheduled;
  }
}

void SchedState::Place(NodeId u, const sched::ResUseList& needs,
                       sched::Placement p) {
  mrt->Place(u, needs, p.cycle);
  Assign(u, p);
  MarkScheduled(u);
  prev_cycle[static_cast<size_t>(u)] = p.cycle;
}

void SchedState::Unplace(NodeId v) {
  if (!sched->IsScheduled(v)) return;
  const int cluster = sched->ClusterOf(v);
  const int cycle = sched->CycleOf(v);
  prev_cycle[static_cast<size_t>(v)] = cycle;
  mrt->Remove(v);
  sched->Unassign(v);
  BumpClusterUse(v, cluster, -1);
  pressure.OnUnplaced(v, cycle);
}

void SchedState::RefillPickCache() {
  pick_size_ = 0;
  pick_next_ = 0;
  size_t listed = 0;
  for (size_t w = 0; w < unscheduled_.size(); ++w) {
    for (std::uint64_t bits = unscheduled_[w]; bits != 0; bits &= bits - 1) {
      const NodeId v = static_cast<NodeId>(w * 64) + std::countr_zero(bits);
      ++listed;
      // Ascending ids: a node ties below every cached node of its priority.
      // Only a node that makes the cache reads its (cold) graph slot.
      const double p = priority[static_cast<size_t>(v)];
      if (pick_size_ == kPickCache &&
          !(p > pick_cache_[kPickCache - 1].priority)) {
        continue;
      }
      if (!g.IsAlive(v)) continue;
      size_t at = pick_size_ < kPickCache ? pick_size_++ : kPickCache - 1;
      for (; at > 0 && p > pick_cache_[at - 1].priority; --at) {
        pick_cache_[at] = pick_cache_[at - 1];
      }
      pick_cache_[at] = Ranked{p, v};
    }
  }
  pick_complete_ = listed <= kPickCache;
  pick_adds_.clear();
  pick_cached_ = true;
}

NodeId SchedState::PickHighestPriority() {
  if (pick_cached_) {
    // The first cached node still on the list is the best of the nodes
    // the scan saw (the others ranked below every cached node); a better
    // one was listed since, and is in pick_adds_. A cached node passed
    // over here that is listed again is in pick_adds_ too.
    while (pick_next_ < pick_size_ && !Listed(pick_cache_[pick_next_].node)) {
      ++pick_next_;
    }
    if (pick_next_ == pick_size_ && !pick_complete_) pick_cached_ = false;
  }
  if (!pick_cached_) RefillPickCache();
  NodeId best = kNoNode;
  double best_priority = 0.0;
  if (pick_next_ < pick_size_) {
    best = pick_cache_[pick_next_].node;
    best_priority = pick_cache_[pick_next_].priority;
  }
  // Nodes that left the list since are dropped: one listed again is
  // appended again. Only a node that would win reads its graph slot.
  size_t kept = 0;
  for (const NodeId v : pick_adds_) {
    if (!IsUnscheduled(v)) continue;
    pick_adds_[kept++] = v;
    const double p = priority[static_cast<size_t>(v)];
    if ((best == kNoNode || p > best_priority ||
         (p == best_priority && v < best)) &&
        g.IsAlive(v)) {
      best = v;
      best_priority = p;
    }
  }
  pick_adds_.resize(kept);
  return best;
}

}  // namespace hcrf::core
