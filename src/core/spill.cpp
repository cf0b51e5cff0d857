#include "core/spill.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/check.h"
#include "core/debug.h"

namespace hcrf::core {

using sched::BankId;
using sched::kSharedBank;

void SpillEngine::Reset() {
  std::fill(spilled_.begin(), spilled_.end(), 0);
  spilled_invariants_.assign(
      static_cast<size_t>(st_.g.num_invariants()) *
          static_cast<size_t>(st_.m.rf.clusters + 1),
      0);
  next_spill_array_ = kSpillArrayBase;
}

void SpillEngine::SinkReloads() {
  const int ii = st_.ii();
  for (NodeId v = 0; v < st_.g.NumSlots(); ++v) {
    if (!st_.g.IsAlive(v) || !st_.sched->IsScheduled(v)) continue;
    const Node& n = st_.g.node(v);
    const bool reload =
        n.op == OpClass::kLoadR || (n.spill && n.op == OpClass::kLoad);
    if (!reload) continue;
    const sched::Placement old = st_.sched->Of(v);
    const auto needs =
        sched::ResourceNeeds(n.op, old.cluster, old.src_cluster, st_.m);
    st_.Unplace(v);
    const Window w = st_.ComputeWindow(v);
    int t = old.cycle;
    if (w.has_succ) {
      const ScanRange range = w.Range(ii, sched::ScanDir::kDown);
      const int cand = st_.mrt->FindFirstSlot(needs, range.lo, range.hi,
                                              sched::ScanDir::kDown);
      if (cand != sched::ModuloReservationTable::kNoSlot) t = cand;
    }
    if (!st_.mrt->CanPlace(needs, t)) t = old.cycle;
    st_.Place(v, needs, {t, old.cluster, old.src_cluster, true});
  }
}

void SpillEngine::CheckAndInsert() {
  const RFConfig& rf = st_.m.rf;
  const bool cluster_bounded = rf.HasClusters() && !rf.UnboundedClusterRegs();
  const bool shared_bounded = rf.HasSharedBank() && !rf.UnboundedSharedRegs();
  if (!cluster_bounded && !shared_bounded) return;

  if (st_.pressure.attached()) {
    // O(1)-amortized fast path: consult the incrementally maintained
    // MaxLive. Only when some bank is over capacity do we pay for the full
    // report (victim selection ranks ValueLifetimes, which the tracker
    // does not materialize) — and the decisions below are then identical
    // to the reference path's, since the tracker agrees with
    // ComputePressure bank for bank (cross-validated here in debug
    // builds and under HCRF_CHECK_PRESSURE).
    if (PressureCrossCheckEnabled()) {
      st_.pressure.CrossValidate("SpillEngine::CheckAndInsert");
    }
    bool over = false;
    if (cluster_bounded) {
      for (int c = 0; c < rf.clusters && !over; ++c) {
        over = st_.pressure.MaxLive(c) > sched::BankCapacity(c, rf);
      }
    }
    if (!over && shared_bounded) {
      over = st_.pressure.MaxLive(kSharedBank) >
             sched::BankCapacity(kSharedBank, rf);
    }
    if (!over) return;
  }

  // Over capacity (or reference path): victim selection ranks the full
  // ValueLifetime list. The tracker materializes a report identical to
  // ComputePressure's at O(values); the reference path recomputes it from
  // the graph.
  if (!st_.pressure.attached()) {
    sched::ComputePressure(st_.g, *st_.sched, st_.m, st_.overrides,
                           pressure_scratch_, reference_report_);
  }
  const sched::PressureReport& pr = st_.pressure.attached()
                                        ? st_.pressure.Report()
                                        : reference_report_;

  if (cluster_bounded) {
    for (int c = 0; c < rf.clusters; ++c) {
      if (pr.cluster_maxlive[static_cast<size_t>(c)] >
          sched::BankCapacity(c, rf)) {
        if (!SpillFromBank(c, pr)) SpillInvariantFromBank(c);
      }
    }
  }
  if (shared_bounded &&
      pr.shared_maxlive > sched::BankCapacity(kSharedBank, rf)) {
    if (!SpillFromBank(kSharedBank, pr)) SpillInvariantFromBank(kSharedBank);
  }
}

bool SpillEngine::SpillFromBank(BankId bank, const sched::PressureReport& pr) {
  const RFConfig& rf = st_.m.rf;
  // Spill destination: cluster banks of hierarchical organizations spill
  // into the shared bank (StoreR/LoadR, no memory traffic); everything else
  // spills to memory.
  const bool to_shared = rf.IsHierarchical() && bank != kSharedBank;

  const int min_len =
      to_shared ? st_.m.lat.storer + st_.m.lat.loadr + 2
                : 2 * (st_.m.lat.store + st_.m.lat.load_hit + 2);

  // Among the legal victims, pick the longest lifetime per use (the first
  // one wins ties).
  const sched::ValueLifetime* best = nullptr;
  double best_score = 0.0;
  for (const sched::ValueLifetime& v : pr.values) {
    if (v.bank != bank || v.uses < 1 || v.Length() <= min_len) continue;
    if (IsSpilled(v.def)) continue;
    const Node& nd = st_.g.node(v.def);
    // Never spill a communication chain's value: chains are owned by the
    // fix records and are re-routed by ejection, not by the spill engine
    // (rewiring a chain edge would orphan its fix record).
    if (st_.IsCommChainNode(v.def)) continue;
    // Never spill a spill copy of the same level again.
    if (nd.spill && to_shared && nd.op == OpClass::kLoadR) continue;
    if (nd.spill && !to_shared && nd.op == OpClass::kLoad) continue;
    const double score = static_cast<double>(v.Length()) / (v.uses + 1);
    if (best == nullptr || score > best_score) {
      best = &v;
      best_score = score;
    }
  }
  if (best == nullptr) return false;

  const NodeId def = best->def;
  if (static_cast<size_t>(def) >= spilled_.size()) {
    spilled_.resize(static_cast<size_t>(def) + 1, 0);
  }
  spilled_[static_cast<size_t>(def)] = 1;

  // Consumers to reroute: every flow consumer except the earliest
  // scheduled one (keeping one direct use preserves the short head of the
  // lifetime) -- unless even that earliest read is far away, in which case
  // everything goes through the reload so the spill actually pays off.
  std::vector<Edge>& consumers = consumers_;
  consumers.clear();
  Edge keep{kNoNode, kNoNode, DepKind::kFlow, 0};
  int keep_time = std::numeric_limits<int>::max();
  for (const Edge& e : st_.g.FlowConsumers(def)) {
    // Chain nodes stay wired to the value's home; only original and spill
    // consumers are re-routed through the reload (see candidate filter).
    if (st_.IsCommChainNode(e.dst)) continue;
    consumers.push_back(e);
    if (st_.sched->IsScheduled(e.dst)) {
      const int read = st_.sched->CycleOf(e.dst) + e.distance * st_.ii();
      if (read < keep_time) {
        keep_time = read;
        keep = e;
      }
    }
  }
  if (keep.src != kNoNode &&
      (consumers.size() <= 1 || keep_time - best->start > 2 * min_len)) {
    // A single (or uniformly distant) consumer still benefits: split the
    // whole lifetime.
    keep = Edge{kNoNode, kNoNode, DepKind::kFlow, 0};
  }

  const double base_prio = st_.priority[static_cast<size_t>(def)];
  // Reloads must schedule *after* every consumer they feed, so their
  // bottom-up placement is anchored by the consumers' slots; otherwise the
  // reload lands early and recreates the long lifetime it was meant to cut.
  double reload_prio = base_prio - 0.6;
  for (const Edge& e : consumers) {
    reload_prio =
        std::min(reload_prio, st_.priority[static_cast<size_t>(e.dst)] - 0.1);
  }
  // One store-side copy; one reload per distinct loop-carried distance
  // among the rerouted consumers. The carried distance rides the hop into
  // the spill home (shared bank or memory), so the post-reload register
  // lifetime is short -- this is what makes spilling effective for the
  // long cross-iteration lifetimes of software-pipelined loops.
  NodeId s;
  if (to_shared) {
    Node ns;
    ns.op = OpClass::kStoreR;
    ns.spill = true;
    s = placer_.CreateNode(std::move(ns), base_prio - 0.3);
    st_.g.AddFlow(def, s, 0);
    ++instr_.stats().storer_ops;
  } else {
    Node ns;
    ns.op = OpClass::kStore;
    ns.spill = true;
    ns.mem = MemRef{next_spill_array_, 0, 8};
    s = placer_.CreateNode(std::move(ns), base_prio - 0.3);
    st_.g.AddFlow(def, s, 0);
    ++instr_.stats().spill_stores;
  }

  reload_by_distance_.clear();
  auto reload_for = [&](int distance) {
    for (const auto& [d, reload] : reload_by_distance_) {
      if (d == distance) return reload;
    }
    NodeId l;
    if (to_shared) {
      Node nl;
      nl.op = OpClass::kLoadR;
      nl.spill = true;
      l = placer_.CreateNode(std::move(nl), reload_prio);
      st_.g.AddFlow(s, l, distance);
      ++instr_.stats().loadr_ops;
    } else {
      Node nl;
      nl.op = OpClass::kLoad;
      nl.spill = true;
      nl.mem = MemRef{next_spill_array_, 0, 8};
      l = placer_.CreateNode(std::move(nl), reload_prio);
      st_.g.AddEdge(s, l, DepKind::kMem, distance);
      ++instr_.stats().spill_loads;
    }
    reload_by_distance_.emplace_back(distance, l);
    return l;
  };

  for (const Edge& e : consumers) {
    if (e.src == keep.src && e.dst == keep.dst && e.distance == keep.distance &&
        e.kind == keep.kind) {
      continue;
    }
    const bool removed = st_.g.RemoveEdge(e.src, e.dst, e.kind, e.distance);
    HCRF_CHECK(removed,
               "spill reroute lost the consumer edge %d->%d (kind %s, "
               "distance %d) of spilled def %d; graph '%s', bank %d, II=%d",
               e.src, e.dst, std::string(ToString(e.kind)).c_str(), e.distance,
               def, st_.g.name().c_str(), bank, st_.ii());
    st_.g.AddEdge(reload_for(e.distance), e.dst, DepKind::kFlow, 0);
  }
  if (!to_shared) ++next_spill_array_;
  instr_.SpillInserted(def, st_.ii());
  return true;
}

bool SpillEngine::SpillInvariantFromBank(BankId bank) {
  const RFConfig& rf = st_.m.rf;
  // Hierarchical master copies are not spilled (the shared bank is the
  // invariant's home); monolithic organizations reload from memory.
  if (bank == kSharedBank && !rf.IsMonolithic()) return false;
  // Pick the lowest unspilled invariant that a scheduled node reading
  // this bank uses: one pass over the slots finds it, a second collects
  // its users in slot order.
  const auto reads_bank = [&](NodeId v) {
    return st_.g.IsAlive(v) && st_.sched->IsScheduled(v) &&
           sched::ReadBank(st_.g.node(v).op, st_.sched->ClusterOf(v), rf) ==
               bank;
  };
  std::int32_t inv = st_.g.num_invariants();
  for (NodeId v = 0; v < st_.g.NumSlots(); ++v) {
    if (!reads_bank(v)) continue;
    for (const std::int32_t u : st_.g.InvariantUses(v)) {
      if (u >= 0 && u < inv && !spilled_invariants_[InvariantSlot(u, bank)]) {
        inv = u;
      }
    }
  }
  if (inv == st_.g.num_invariants()) return false;
  std::vector<NodeId>& users = users_;
  users.clear();
  for (NodeId v = 0; v < st_.g.NumSlots(); ++v) {
    if (!reads_bank(v)) continue;
    const std::span<const std::int32_t> uses = st_.g.InvariantUses(v);
    if (std::ranges::find(uses, inv) != uses.end()) users.push_back(v);
  }
  spilled_invariants_[InvariantSlot(inv, bank)] = 1;

  for (NodeId w : users) {
    Node nl;
    nl.spill = true;
    if (rf.IsHierarchical()) {
      // Reload from the shared master copy.
      nl.op = OpClass::kLoadR;
    } else {
      // Reload from memory (stride 0: the invariant's home location).
      nl.op = OpClass::kLoad;
      nl.mem = MemRef{next_spill_array_, 0, 0};
      ++instr_.stats().spill_loads;
    }
    const NodeId l = placer_.CreateNode(
        std::move(nl), st_.priority[static_cast<size_t>(w)] + 0.1);
    if (rf.IsHierarchical()) st_.g.AddInvariantUse(l, inv);
    st_.g.RemoveInvariantUse(w, inv);
    // The uses of a scheduled node changed; re-derive its pins or the
    // tracker would keep counting the removed read.
    st_.pressure.ResyncInvariantReads(w);
    st_.g.AddFlow(l, w, 0);
  }
  if (!rf.IsHierarchical()) ++next_spill_array_;
  instr_.SpillInserted(kNoNode, st_.ii());
  return true;
}

}  // namespace hcrf::core
