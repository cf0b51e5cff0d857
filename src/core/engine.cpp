#include "core/engine.h"

#include <algorithm>
#include <optional>

#include "core/check.h"
#include "core/debug.h"
#include "ddg/mii.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/banks.h"
#include "sched/mrt.h"
#include "sched/ordering.h"
#include "sched/validate.h"

namespace hcrf::core {

using sched::BankId;
using sched::kSharedBank;

// ---------------------------------------------------------------------------
// AttemptContext
// ---------------------------------------------------------------------------

AttemptContext::AttemptContext(const DDG& original, const MachineConfig& m,
                               const MirsOptions& opt,
                               const sched::LatencyOverrides& base_overrides,
                               const std::vector<NodeId>& order,
                               bool incremental)
    : original_(original),
      m_(m),
      opt_(opt),
      base_overrides_(base_overrides),
      order_(order),
      incremental_(incremental),
      st_(m),
      comm_(st_, *this, instr_),
      spill_(st_, *this, instr_),
      selector_(MakeClusterSelector(opt.cluster_policy)) {}

// ---------------------------------------------------------------------------
// NodePlacer services
// ---------------------------------------------------------------------------

NodeId AttemptContext::CreateNode(Node n, double priority) {
  n.inserted = true;
  const NodeId id = st_.g.AddNode(std::move(n));
  st_.GrowTo(id);
  st_.priority[static_cast<size_t>(id)] = priority;
  st_.MarkUnscheduled(id);
  // The paper grants Budget_Ratio extra attempts per inserted node (the
  // total grant is capped, see BudgetAccount).
  instr_.BudgetGranted(budget_.Grant(opt_.budget_ratio));
  return id;
}

bool AttemptContext::PlaceNode(NodeId u, int cluster, int src_cluster) {
  if (budget_.exhausted()) return false;
  const int ii = st_.ii();
  const auto needs =
      sched::ResourceNeeds(st_.g.node(u).op, cluster, src_cluster, m_);
  // Structurally impossible placements (e.g. Move with no buses).
  for (const auto& need : needs) {
    if (st_.mrt->Capacity(need.kind, need.cluster) <= 0) return false;
  }

  const Window w = st_.ComputeWindow(u);
  // Scan direction per HRMS: top-down when predecessors anchor the node,
  // bottom-up when only successors do. Reload-style copies (spill loads,
  // LoadR) are also placed as late as possible even when both sides are
  // anchored: their input lives in memory or the capacious shared bank, so
  // a late placement minimizes the register lifetime of their value.
  const OpClass op_u = st_.g.node(u).op;
  const bool late_biased =
      op_u == OpClass::kLoadR ||
      (st_.g.node(u).spill && op_u == OpClass::kLoad);
  // Window scans via the MRT's hoisted probe (kNoSlot and kNoCycle are the
  // same sentinel).
  static_assert(sched::ModuloReservationTable::kNoSlot == kNoCycle);
  int found;
  if (w.has_succ && (!w.has_pred || late_biased)) {
    const int lo = w.has_pred ? std::max(w.early, w.late - ii + 1)
                              : w.late - ii + 1;
    found = st_.mrt->FindFirstSlotDown(needs, w.late, lo);
  } else {
    const int hi =
        w.has_succ ? std::min(w.late, w.early + ii - 1) : w.early + ii - 1;
    found = st_.mrt->FindFirstSlotUp(needs, w.early, hi);
  }

  if (found == kNoCycle) {
    if (!opt_.iterative) return false;
    // Lazily armed: this runs once per forced placement (ejection-heavy
    // organizations force hundreds of thousands per second), so the
    // untraced path must pay one relaxed load, not a span's member setup.
    std::optional<obs::TraceSpan> cascade_span;
    if (obs::TraceEnabled()) {
      cascade_span.emplace("phase", "eject-cascade", ii, u);
    }
    // Force placement. Following iterative modulo scheduling, the forced
    // cycle advances past the previous placement of the node so repeated
    // forcing makes progress.
    // The forced cycle marches monotonically from the window edge. It
    // normally stays inside the dependence window, but a node that keeps
    // being ejected is allowed to land outside it: the violated
    // predecessors/successors are ejected too, which is the paper's escape
    // hatch from zero-slack chains on saturated ports.
    const bool desperate =
        static_cast<size_t>(u) < st_.eject_count.size() &&
        st_.eject_count[static_cast<size_t>(u)] > 12;
    int t;
    if (w.has_succ && (!w.has_pred || late_biased)) {
      t = st_.prev_cycle[static_cast<size_t>(u)] == kNoCycle
              ? w.late
              : std::min(w.late, st_.prev_cycle[static_cast<size_t>(u)] - 1);
      if (w.has_pred && !desperate) t = std::max(t, w.early);
    } else {
      t = st_.prev_cycle[static_cast<size_t>(u)] == kNoCycle
              ? w.early
              : std::max(w.early, st_.prev_cycle[static_cast<size_t>(u)] + 1);
    }
    // Eject resource conflicts.
    st_.mrt->ConflictingNodes(needs, t, conflicts_scratch_);
    for (NodeId victim : conflicts_scratch_) Eject(victim);
    // Ejecting a victim can undo the communication chain u itself belongs
    // to, garbage-collecting u. Placing the tombstone would permanently
    // hold its MRT slots and serialize a "placement of undefined node"
    // that the strict result parser (and so the schedule cache) rejects;
    // there is nothing left to place, which is not a failure.
    if (!st_.g.IsAlive(u)) return true;
    if (!st_.mrt->CanPlace(needs, t)) {
      // A comm-node ejection rerouted a chain and refilled the slot; give
      // up on this attempt (budget will drive an II bump).
      return false;
    }
    st_.mrt->Place(u, needs, t);
    st_.Assign(u, {t, cluster, src_cluster, true});
    st_.MarkScheduled(u);
    st_.prev_cycle[static_cast<size_t>(u)] = t;
    // Eject scheduled neighbours whose dependences the forced placement
    // violates.
    violated_scratch_.clear();
    for (const Edge& e : st_.g.InEdges(u)) {
      if (!st_.sched->IsScheduled(e.src) || e.src == u) continue;
      if (st_.sched->CycleOf(e.src) + st_.LatOf(e) > t + e.distance * ii) {
        violated_scratch_.push_back(e.src);
      }
    }
    for (const Edge& e : st_.g.OutEdges(u)) {
      if (!st_.sched->IsScheduled(e.dst) || e.dst == u) continue;
      if (t + st_.LatOf(e) > st_.sched->CycleOf(e.dst) + e.distance * ii) {
        violated_scratch_.push_back(e.dst);
      }
    }
    for (NodeId v : violated_scratch_) Eject(v);
    instr_.NodeForced(u, ii);
  } else {
    st_.mrt->Place(u, needs, found);
    st_.Assign(u, {found, cluster, src_cluster, true});
    st_.MarkScheduled(u);
    st_.prev_cycle[static_cast<size_t>(u)] = found;
    instr_.NodePlaced(u, ii);
  }

  budget_.Spend(1.0);
  instr_.BudgetSpent(1.0);
  return true;
}

// ---------------------------------------------------------------------------
// Ejection
// ---------------------------------------------------------------------------

void AttemptContext::Eject(NodeId victim) {
  if (!st_.g.IsAlive(victim)) return;
  if (st_.IsCommChainNode(victim)) {
    // Ejecting a communication node means redoing the consumer's
    // communication: eject every consumer whose chain runs through it.
    for (NodeId c : comm_.ConsumersThrough(victim)) Eject(c);
    return;
  }
  EjectScheduledNode(victim);
}

void AttemptContext::EjectScheduledNode(NodeId v) {
  if (!st_.sched->IsScheduled(v)) return;
  st_.Unplace(v);
  st_.MarkUnscheduled(v);
  instr_.NodeEjected(v, st_.ii());
  if (static_cast<size_t>(v) < st_.eject_count.size()) {
    if (++st_.eject_count[static_cast<size_t>(v)] > 60) st_.churning = true;
  }
  comm_.UndoFixesTouching(v);
  comm_.GarbageCollectComm();
}

// ---------------------------------------------------------------------------
// Cluster selection (structural constraints, then policy)
// ---------------------------------------------------------------------------

int AttemptContext::SelectCluster(NodeId u) {
  const RFConfig& rf = m_.rf;
  if (!rf.HasClusters()) return 0;
  const Node& n = st_.g.node(u);

  // Communication and spill copies have their cluster dictated by the
  // scheduled endpoint they serve; the policy only decides for free nodes.
  if (n.op == OpClass::kLoadR) {
    for (const Edge& e : st_.g.FlowConsumers(u)) {
      if (st_.sched->IsScheduled(e.dst)) {
        const BankId b = sched::ReadBank(st_.g.node(e.dst).op,
                                         st_.sched->ClusterOf(e.dst), rf);
        if (b != kSharedBank) return b;
      }
    }
    return structural_fallback_.Select(st_, u);
  }
  if (n.op == OpClass::kStoreR) {
    for (const Edge& e : st_.g.FlowProducers(u)) {
      if (st_.sched->IsScheduled(e.src)) {
        const BankId b = sched::DefBank(st_.g.node(e.src).op,
                                        st_.sched->ClusterOf(e.src), rf);
        if (b != kSharedBank) return b;
      }
    }
    return structural_fallback_.Select(st_, u);
  }
  if (rf.IsPureClustered() && n.spill && IsMemory(n.op)) {
    // Spill stores read the producer's cluster; spill loads feed consumers.
    if (n.op == OpClass::kStore) {
      for (const Edge& e : st_.g.FlowProducers(u)) {
        if (st_.sched->IsScheduled(e.src)) return st_.sched->ClusterOf(e.src);
      }
    } else {
      for (const Edge& e : st_.g.FlowConsumers(u)) {
        if (st_.sched->IsScheduled(e.dst)) return st_.sched->ClusterOf(e.dst);
      }
    }
    return structural_fallback_.Select(st_, u);
  }

  return selector_->Select(st_, u);
}

// ---------------------------------------------------------------------------
// One II attempt
// ---------------------------------------------------------------------------

AttemptStatus AttemptContext::TryII(int ii) {
  if (!obs::TraceEnabled()) {
    BeginAttempt(ii);
    return FinishAttempt(ii);
  }
  obs::TraceSpan span("sched", "attempt", ii);
  BeginAttempt(ii);
  const AttemptStatus st = FinishAttempt(ii);
  span.set_detail(std::string(ToString(st)));
  return st;
}

AttemptStatus AttemptContext::TryIISeeded(const ScheduleResult& seed, int ii,
                                          int* seeded_out) {
  obs::TraceSpan span("sched", "warm-attempt", ii);
  BeginAttempt(ii);
  const int seeded = SeedFrom(seed);
  if (seeded_out != nullptr) *seeded_out = seeded;
  const AttemptStatus st = FinishAttempt(ii);
  span.set_detail(std::string(ToString(st)) + " seeded=" +
                  std::to_string(seeded));
  return st;
}

int AttemptContext::SeedFrom(const ScheduleResult& seed) {
  int seeded = 0;
  const DDG& sg = seed.graph;
  // Walk in priority order — the same order the cold placement loop uses —
  // so the incremental window checks below see each node's highest-priority
  // neighbours first, exactly like a conflict-free cold run would.
  for (NodeId v : order_) {
    // Seed-compat gate, per node. Only original nodes replay: inserted
    // comm/spill nodes have seed-specific ids and are re-derived by
    // EnsureCommunication / the spill fixpoint during repair.
    if (static_cast<size_t>(v) >= static_cast<size_t>(sg.NumSlots())) continue;
    if (!sg.IsAlive(v) || sg.node(v).inserted) continue;
    if (!seed.schedule.IsScheduled(v)) continue;
    if (!st_.g.IsAlive(v) || st_.sched->IsScheduled(v)) continue;
    if (sg.node(v).op != st_.g.node(v).op) continue;
    const sched::Placement p = seed.schedule.Of(v);
    if (p.cluster < 0 ||
        (m_.rf.HasClusters() ? p.cluster >= m_.rf.clusters : p.cluster != 0)) {
      continue;  // seed from a different clustering: not replayable
    }
    // Cross-bank flows need their communication chains rebuilt before the
    // consumer lands (the seed's own chains were skipped above). A chain
    // the rewriter cannot build ends the seeding; the repair cascade
    // re-derives whatever is left.
    if (!comm_.EnsureCommunication(v, p.cluster)) break;
    // Chain force-placements may have ejected or garbage-collected v.
    if (!st_.g.IsAlive(v) || st_.sched->IsScheduled(v)) continue;
    const auto needs =
        sched::ResourceNeeds(st_.g.node(v).op, p.cluster, p.src_cluster, m_);
    bool impossible = false;
    for (const auto& need : needs) {
      if (st_.mrt->Capacity(need.kind, need.cluster) <= 0) {
        impossible = true;
        break;
      }
    }
    if (impossible) continue;
    // Re-check the dependence window under the CURRENT latencies and edges:
    // a node whose constraints changed since the seed (the perturbation
    // itself, or a neighbour the walk already skipped) is left unscheduled
    // for the repair cascade instead of replayed into a violation.
    const Window w = st_.ComputeWindow(v);
    if (w.has_pred && p.cycle < w.early) continue;
    if (w.has_succ && p.cycle > w.late) continue;
    if (!st_.mrt->CanPlace(needs, p.cycle)) continue;
    // Same funnel sequence as PlaceNode's free-slot path, minus the
    // instrumentation and budget spend: replayed placements are not
    // attempts, so ScheduleStats keeps measuring repair work only.
    st_.mrt->Place(v, needs, p.cycle);
    st_.Assign(v, {p.cycle, p.cluster, p.src_cluster, true});
    st_.MarkScheduled(v);
    st_.prev_cycle[static_cast<size_t>(v)] = p.cycle;
    ++seeded;
  }
  return seeded;
}

void AttemptContext::BeginAttempt(int ii) {
  st_.Reset(original_, base_overrides_, ii, incremental_);
  comm_.Reset();
  spill_.Reset();
  selector_->Reset();
  since_spill_check_ = 0;

  for (size_t r = 0; r < order_.size(); ++r) {
    st_.priority[static_cast<size_t>(order_[r])] =
        static_cast<double>(order_.size() - r);
  }
  for (NodeId v : order_) st_.MarkUnscheduled(v);
  budget_.Start(opt_.budget_ratio * st_.g.NumNodes(),
                8.0 * opt_.budget_ratio * std::max(4, original_.NumNodes()));
}

AttemptStatus AttemptContext::FinishAttempt(int ii) {
  while (true) {
    {
    // One "placement" span per drain of the priority list (a spill fixpoint
    // iteration that reschedules reloads opens another).
    obs::TraceSpan place_span("phase", "placement", ii);
    while (st_.num_unscheduled > 0) {
      if (st_.churning) {
        return AttemptStatus::kChurn;  // livelocked ping-pong: bump the II
      }
      if (budget_.exhausted()) return AttemptStatus::kBudget;
      const NodeId u = st_.PickHighestPriority();
      HCRF_CHECK(u != kNoNode,
                 "priority-list desync: %d node(s) marked unscheduled but "
                 "none alive in graph '%s' (II=%d, %d slots)",
                 st_.num_unscheduled, original_.name().c_str(), ii,
                 st_.g.NumSlots());
      const int cluster = SelectCluster(u);
      int src_cluster = 0;
      if (st_.g.node(u).op == OpClass::kMove) {
        // Re-scheduled move: the source side is its producer's bank.
        const auto producers = st_.g.FlowProducers(u);
        if (!producers.empty() &&
            st_.sched->IsScheduled(producers.front().src)) {
          src_cluster = st_.sched->ClusterOf(producers.front().src);
        }
      }
      {
        // Lazily armed (one comm rewrite per placed node; see the
        // eject-cascade span).
        std::optional<obs::TraceSpan> comm_span;
        if (obs::TraceEnabled()) {
          comm_span.emplace("phase", "comm-rewrite", ii, static_cast<int>(u));
        }
        if (!comm_.EnsureCommunication(u, cluster)) {
          return AttemptStatus::kComm;
        }
      }
      // Building u's communication can force-place chain nodes, whose
      // ejection cascade may dissolve the very chain u belongs to and
      // garbage-collect u. A tombstoned node must not be placed: the
      // stale placement would hold MRT slots forever and serialize as a
      // "placement of undefined node" that the strict result parser (and
      // so the schedule cache) rejects.
      if (!st_.g.IsAlive(u)) continue;
      if (!PlaceNode(u, cluster, src_cluster)) return AttemptStatus::kPlace;
      // Register-pressure checks are O(values); checking every few
      // placements (and always when the list drains) keeps the paper's
      // incremental-spill behaviour at a fraction of the cost.
      if (++since_spill_check_ >= 4 || st_.num_unscheduled == 0) {
        since_spill_check_ = 0;
        spill_.CheckAndInsert();
      }
    }
    }

    // Sink reloads towards their consumers. Sinking can lengthen
    // shared-bank residencies (that is its purpose: the shared bank absorbs
    // the carried distances), which may in turn require further spilling of
    // shared values to memory -- so iterate sink -> spill -> schedule to a
    // fixpoint (bounded: each value spills at most once per attempt).
    {
      obs::TraceSpan spill_span("phase", "spill", ii);
      spill_.SinkReloads();
      spill_.CheckAndInsert();
    }
    if (st_.num_unscheduled > 0) {
      if (budget_.exhausted()) return AttemptStatus::kBudget;
      continue;
    }
    break;
  }

  // Final register allocation check: every bank within capacity.
  obs::TraceSpan validate_span("phase", "validate", ii);
  const RFConfig& rf = m_.rf;
  const bool shared_bounded = rf.HasSharedBank() && !rf.UnboundedSharedRegs();
  const bool cluster_bounded = !rf.UnboundedClusterRegs() && rf.clusters > 0;
  if (shared_bounded || cluster_bounded) {
    if (st_.pressure.attached() && PressureCrossCheckEnabled()) {
      st_.pressure.CrossValidate("AttemptContext::TryII final check");
    }
    const sched::PressureReport pr =
        st_.pressure.attached()
            ? st_.pressure.Report()
            : sched::ComputePressure(st_.g, *st_.sched, m_, st_.overrides);
    if (shared_bounded &&
        pr.shared_maxlive > sched::BankCapacity(kSharedBank, rf)) {
      return AttemptStatus::kOverCapacity;
    }
    for (int c = 0; cluster_bounded && c < rf.clusters; ++c) {
      if (pr.cluster_maxlive[static_cast<size_t>(c)] >
          sched::BankCapacity(c, rf)) {
        return AttemptStatus::kOverCapacity;
      }
    }
  }

  const sched::ValidationResult vr =
      sched::Validate(st_.g, *st_.sched, m_, st_.overrides);
  return vr.ok ? AttemptStatus::kScheduled : AttemptStatus::kInvalid;
}

ScheduleResult AttemptContext::Finalize(const MIIInfo& mii, int ii) {
  ScheduleResult res;
  res.ok = true;
  res.ii = ii;
  res.res_mii = mii.res_mii;
  res.rec_mii = mii.rec_mii;
  res.mii = mii.MII();
  // Scheduling is done: stop tracking before Normalize shifts cycles
  // and the graph/schedule are moved into the result.
  st_.pressure.Detach();
  st_.sched->Normalize();
  res.sc = st_.sched->StageCount();
  res.stats = instr_.stats();
  res.stats.restarts = ii - res.mii;
  // Count communication and memory ops in the final graph.
  res.stats.comm_ops = 0;
  res.stats.loadr_ops = 0;
  res.stats.storer_ops = 0;
  res.stats.move_ops = 0;
  res.stats.spill_loads = 0;
  res.stats.spill_stores = 0;
  res.mem_ops_per_iter = 0;
  for (NodeId v = 0; v < st_.g.NumSlots(); ++v) {
    if (!st_.g.IsAlive(v)) continue;
    const Node& n = st_.g.node(v);
    if (IsCommunication(n.op)) {
      ++res.stats.comm_ops;
      if (n.op == OpClass::kLoadR) ++res.stats.loadr_ops;
      if (n.op == OpClass::kStoreR) ++res.stats.storer_ops;
      if (n.op == OpClass::kMove) ++res.stats.move_ops;
    }
    if (IsMemory(n.op)) {
      ++res.mem_ops_per_iter;
      if (n.spill) {
        if (n.op == OpClass::kLoad) ++res.stats.spill_loads;
        if (n.op == OpClass::kStore) ++res.stats.spill_stores;
      }
    }
  }
  const int rec_final = RecMII(st_.g, m_.lat);
  res.bound = ClassifyBound(st_.g, m_, ii, rec_final);
  res.graph = std::move(st_.g);
  res.schedule = std::move(*st_.sched);
  res.overrides = std::move(st_.overrides);
  return res;
}

// ---------------------------------------------------------------------------
// EngineDriver: warm-start gate and II escalation
// ---------------------------------------------------------------------------

EngineDriver::EngineDriver(const DDG& loop, const MachineConfig& m,
                           const MirsOptions& opt,
                           const sched::LatencyOverrides& base_overrides)
    : original_(loop),
      m_(m),
      opt_(opt),
      base_overrides_(base_overrides) {
  // Canonicalize the overrides: trailing zero entries are behaviorally
  // inert (LatencyOverrides::For falls back) but would leak into the
  // serialized result, and the schedule cache keys padding-equivalent
  // requests together, so their dumps must be bit-identical.
  std::vector<int>& pl = base_overrides_.producer_latency;
  while (!pl.empty() && pl.back() <= 0) pl.pop_back();
}

ScheduleResult EngineDriver::Run() {
  obs::TraceSpan loop_span("sched", "loop");
  loop_span.set_detail(original_.name());
  MIIInfo mii;
  if (opt_.precomputed_mii) {
    mii = *opt_.precomputed_mii;
  } else {
    obs::TraceSpan mii_span("phase", "mii");
    mii = ComputeMII(original_, m_);
  }
  {
    obs::TraceSpan order_span("phase", "ordering");
    order_ = sched::HrmsOrder(original_, m_.lat);
  }
  // Warm-start gate: one seeded attempt before the cold walk. A failed (or
  // rejected) seed falls through to the cold path with the fallback counted
  // on the result — never silent.
  WarmStartTelemetry warm;
  if (opt_.warm_start != nullptr && opt_.warm_start->ok) {
    if (std::optional<ScheduleResult> res = RunWarm(mii)) return *res;
    warm.attempted = true;
    warm.fallback = true;
  }
  ScheduleResult res = RunSerial(mii);
  res.warm = warm;
  return res;
}

std::optional<ScheduleResult> EngineDriver::RunWarm(const MIIInfo& mii) {
  static obs::Counter& used_counter = obs::GetCounter("engine.warm.used");
  static obs::Counter& fallback_counter =
      obs::GetCounter("engine.warm.fallback");
  const ScheduleResult& seed = *opt_.warm_start;
  // The escalation loop starts at the seed's II instead of MII (never below
  // the current MII: the perturbed loop cannot schedule there, and the
  // seeded MRT would not even hold the replayed rows).
  const int start_ii = std::max(mii.MII(), seed.ii);
  if (start_ii <= opt_.max_ii) {
    AttemptContext ctx(original_, m_, opt_, base_overrides_, order_,
                       incremental_);
    int seeded = 0;
    if (ctx.TryIISeeded(seed, start_ii, &seeded) ==
        AttemptStatus::kScheduled) {
      // The attempt passed the full validation gate (register pressure +
      // sched::Validate) inside FinishAttempt, like any cold attempt.
      ScheduleResult res = ctx.Finalize(mii, start_ii);
      res.warm.attempted = true;
      res.warm.used = true;
      res.warm.seeded = seeded;
      res.warm.repaired = static_cast<int>(res.stats.attempts);
      used_counter.Add(1);
      return res;
    }
  }
  fallback_counter.Add(1);
  return std::nullopt;
}

ScheduleResult EngineDriver::FailResult(const MIIInfo& mii,
                                        const ScheduleStats& stats) const {
  ScheduleResult res;
  res.ok = false;
  res.res_mii = mii.res_mii;
  res.rec_mii = mii.rec_mii;
  res.mii = mii.MII();
  res.stats = stats;
  return res;
}

ScheduleResult EngineDriver::RunSerial(const MIIInfo& mii) {
  AttemptContext ctx(original_, m_, opt_, base_overrides_, order_,
                     incremental_);
  int failures = 0;
  for (int ii = mii.MII(); ii <= opt_.max_ii;) {
    if (ctx.TryII(ii) == AttemptStatus::kScheduled) {
      return ctx.Finalize(mii, ii);
    }
    // Escalation accelerates after 24 consecutive failures.
    ++failures;
    ii += failures > 24 ? std::max(1, ii / 8) : 1;
    ctx.instr().IIRestart(ii);
  }
  return FailResult(mii, ctx.instr().stats());
}

}  // namespace hcrf::core
