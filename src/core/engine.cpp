#include "core/engine.h"

#include <algorithm>
#include <memory>
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

AttemptContext::AttemptContext()
    : st_(m_), comm_(st_, *this, instr_), spill_(st_, *this, instr_) {}

AttemptContext::AttemptContext(const DDG& original, const MachineConfig& m,
                               const MirsOptions& opt,
                               const sched::LatencyOverrides& base_overrides,
                               const std::vector<NodeId>& order,
                               bool incremental)
    : AttemptContext() {
  Bind(original, m, opt, base_overrides, order, incremental);
}

void AttemptContext::Bind(const DDG& original, const MachineConfig& m,
                          const MirsOptions& opt,
                          const sched::LatencyOverrides& base_overrides,
                          const std::vector<NodeId>& order, bool incremental) {
  original_ = &original;
  m_ = m;
  opt_ = opt;
  base_overrides_ = base_overrides;
  order_ = &order;
  incremental_ = incremental;
  instr_.stats() = {};
  switch (opt.cluster_policy) {
    case ClusterPolicy::kBalanced: selector_ = &balanced_; break;
    case ClusterPolicy::kRoundRobin: selector_ = &round_robin_; break;
    case ClusterPolicy::kFirstFit: selector_ = &first_fit_; break;
  }
}

size_t AttemptContext::TableCapacity() const {
  const size_t sched = st_.mrt != nullptr ? st_.mrt->TableCapacity() : 0;
  return sched + validate_scratch_.mrt.TableCapacity();
}

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
  return PlaceNode(u, cluster, src_cluster, std::nullopt);
}

bool AttemptContext::PlaceNode(NodeId u, int cluster, int src_cluster,
                               const std::optional<Window>& window) {
  if (budget_.exhausted()) return false;
  const int ii = st_.ii();
  const auto needs =
      sched::ResourceNeeds(st_.g.node(u).op, cluster, src_cluster, m_);
  // Structurally impossible placements (e.g. Move with no buses).
  for (const auto& need : needs) {
    if (st_.mrt->Capacity(need.kind, need.cluster) <= 0) return false;
  }

  const Window w = window ? *window : st_.ComputeWindow(u);
  // Reload-style copies (spill loads, LoadR) are placed as late as
  // possible even when both sides are anchored: their input lives in
  // memory or the capacious shared bank, so a late placement minimizes the
  // register lifetime of their value.
  const OpClass op_u = st_.g.node(u).op;
  const bool late_biased =
      op_u == OpClass::kLoadR ||
      (st_.g.node(u).spill && op_u == OpClass::kLoad);
  const sched::ScanDir dir = w.Direction(late_biased);
  const ScanRange range = w.Range(ii, dir);
  // kNoSlot and kNoCycle are the same sentinel.
  static_assert(sched::ModuloReservationTable::kNoSlot == kNoCycle);
  const int found = st_.mrt->FindFirstSlot(needs, range.lo, range.hi, dir);

  if (found == kNoCycle) {
    if (!opt_.iterative) return false;
    const obs::Phase cascade_phase({"phase", "eject-cascade"}, ii, u);
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
    const int t = w.ForcedCycle(dir, st_.prev_cycle[static_cast<size_t>(u)],
                                desperate);
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
    st_.Place(u, needs, {t, cluster, src_cluster, true});
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
    st_.Place(u, needs, {found, cluster, src_cluster, true});
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
    // Those ejections can re-enter here before this list is walked, so
    // each level appends its own segment to the shared stack, reads it by
    // index (the stack may grow) and truncates it when done.
    const size_t begin = eject_stack_.size();
    comm_.ConsumersThrough(victim, eject_stack_);
    const size_t end = eject_stack_.size();
    for (size_t i = begin; i < end; ++i) Eject(eject_stack_[i]);
    eject_stack_.resize(begin);
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

int AttemptContext::SelectCluster(NodeId u, std::optional<Window>& window) {
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
    return balanced_.Select(st_, u, window);
  }
  if (n.op == OpClass::kStoreR) {
    for (const Edge& e : st_.g.FlowProducers(u)) {
      if (st_.sched->IsScheduled(e.src)) {
        const BankId b = sched::DefBank(st_.g.node(e.src).op,
                                        st_.sched->ClusterOf(e.src), rf);
        if (b != kSharedBank) return b;
      }
    }
    return balanced_.Select(st_, u, window);
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
    return balanced_.Select(st_, u, window);
  }

  return selector_->Select(st_, u, window);
}

// ---------------------------------------------------------------------------
// One II attempt
// ---------------------------------------------------------------------------

AttemptStatus AttemptContext::TryII(int ii) {
  obs::Phase phase({"sched", "attempt"}, ii);
  BeginAttempt(ii);
  const AttemptStatus st = FinishAttempt(ii);
  phase.set_detail(ToString(st));
  return st;
}

AttemptStatus AttemptContext::TryIISeeded(const ScheduleResult& seed, int ii,
                                          int* seeded_out) {
  obs::Phase phase({"sched", "warm-attempt"}, ii);
  BeginAttempt(ii);
  const int seeded = SeedFrom(seed);
  if (seeded_out != nullptr) *seeded_out = seeded;
  const AttemptStatus st = FinishAttempt(ii);
  if (phase.armed()) {
    phase.set_detail(std::string(ToString(st)) + " seeded=" +
                     std::to_string(seeded));
  }
  return st;
}

int AttemptContext::SeedFrom(const ScheduleResult& seed) {
  int seeded = 0;
  const DDG& sg = seed.graph;
  // Walk in priority order — the same order the cold placement loop uses —
  // so the incremental window checks below see each node's highest-priority
  // neighbours first, exactly like a conflict-free cold run would.
  for (NodeId v : *order_) {
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
    // Re-check the dependence window under the CURRENT latencies and edges:
    // a node whose constraints changed since the seed (the perturbation
    // itself, or a neighbour the walk already skipped) is left unscheduled
    // for the repair cascade instead of replayed into a violation.
    const Window w = st_.ComputeWindow(v);
    if (w.has_pred && p.cycle < w.early) continue;
    if (w.has_succ && p.cycle > w.late) continue;
    // CanPlace also fails a structurally impossible need (no unit at all).
    const auto needs =
        sched::ResourceNeeds(st_.g.node(v).op, p.cluster, p.src_cluster, m_);
    if (!st_.mrt->CanPlace(needs, p.cycle)) continue;
    // PlaceNode's funnel, minus the instrumentation and budget spend:
    // replayed placements are not attempts, so ScheduleStats keeps
    // measuring repair work only.
    st_.Place(v, needs, {p.cycle, p.cluster, p.src_cluster, true});
    ++seeded;
  }
  return seeded;
}

void AttemptContext::BeginAttempt(int ii) {
  st_.Reset(*original_, base_overrides_, ii, incremental_);
  comm_.Reset();
  spill_.Reset();
  selector_->Reset();
  since_spill_check_ = 0;

  const std::vector<NodeId>& order = *order_;
  for (size_t r = 0; r < order.size(); ++r) {
    st_.priority[static_cast<size_t>(order[r])] =
        static_cast<double>(order.size() - r);
  }
  for (NodeId v : order) st_.MarkUnscheduled(v);
  budget_.Start(opt_.budget_ratio * st_.g.NumNodes(),
                8.0 * opt_.budget_ratio * std::max(4, original_->NumNodes()));
}

AttemptStatus AttemptContext::FinishAttempt(int ii) {
  while (true) {
    {
    // One "placement" span per drain of the priority list (a spill fixpoint
    // iteration that reschedules reloads opens another).
    const obs::Phase placement_phase({"phase", "placement"}, ii);
    while (st_.num_unscheduled > 0) {
      if (st_.churning) {
        return AttemptStatus::kChurn;  // livelocked ping-pong: bump the II
      }
      if (budget_.exhausted()) return AttemptStatus::kBudget;
      const NodeId u = st_.PickHighestPriority();
      HCRF_CHECK(u != kNoNode,
                 "priority-list desync: %d node(s) marked unscheduled but "
                 "none alive in graph '%s' (II=%d, %d slots)",
                 st_.num_unscheduled, original_->name().c_str(), ii,
                 st_.g.NumSlots());
      // u's dependence window, when the cluster policy computed it.
      std::optional<Window> window;
      const int cluster = SelectCluster(u, window);
      int src_cluster = 0;
      if (st_.g.node(u).op == OpClass::kMove) {
        // Re-scheduled move: the source side is its producer's bank.
        const EdgeView producers = st_.g.FlowProducers(u);
        if (!producers.empty() &&
            st_.sched->IsScheduled(producers.front().src)) {
          src_cluster = st_.sched->ClusterOf(producers.front().src);
        }
      }
      {
        const obs::Phase comm_phase({"phase", "comm-rewrite"}, ii, u);
        const long rewrites = comm_.rewrites();
        if (!comm_.EnsureCommunication(u, cluster)) {
          return AttemptStatus::kComm;
        }
        // A chain changes u's edges and places (or ejects) neighbours.
        if (comm_.rewrites() != rewrites) window.reset();
      }
      // Building u's communication can force-place chain nodes, whose
      // ejection cascade may dissolve the very chain u belongs to and
      // garbage-collect u. A tombstoned node must not be placed: the
      // stale placement would hold MRT slots forever and serialize as a
      // "placement of undefined node" that the strict result parser (and
      // so the schedule cache) rejects.
      if (!st_.g.IsAlive(u)) continue;
      if (!PlaceNode(u, cluster, src_cluster, window)) {
        return AttemptStatus::kPlace;
      }
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
      const obs::Phase spill_phase({"phase", "spill"}, ii);
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
  const obs::Phase validate_phase({"phase", "validate"}, ii);
  const RFConfig& rf = m_.rf;
  const bool shared_bounded = rf.HasSharedBank() && !rf.UnboundedSharedRegs();
  const bool cluster_bounded = !rf.UnboundedClusterRegs() && rf.clusters > 0;
  if (shared_bounded || cluster_bounded) {
    const bool tracked = st_.pressure.attached();
    if (tracked && PressureCrossCheckEnabled()) {
      st_.pressure.CrossValidate("AttemptContext::TryII final check");
    }
    if (!tracked) {
      sched::ComputePressure(st_.g, *st_.sched, m_, st_.overrides,
                             validate_scratch_.pressure,
                             validate_scratch_.report);
    }
    const auto over_capacity = [&](BankId bank) {
      const long capacity = sched::BankCapacity(bank, rf);
      return tracked ? st_.pressure.Exceeds(bank, capacity)
                     : validate_scratch_.report.MaxLiveOf(bank) > capacity;
    };
    if (shared_bounded && over_capacity(kSharedBank)) {
      return AttemptStatus::kOverCapacity;
    }
    for (int c = 0; cluster_bounded && c < rf.clusters; ++c) {
      if (over_capacity(c)) return AttemptStatus::kOverCapacity;
    }
  }

  const sched::ValidationResult vr = sched::Validate(
      st_.g, *st_.sched, m_, st_.overrides, validate_scratch_);
  return vr.ok ? AttemptStatus::kScheduled : AttemptStatus::kInvalid;
}

namespace {

/// Classification of the achieved II against its component bounds, on the
/// final transformed graph's counts: its FU occupancy (unpipelined ops
/// count their latency) and the memory and communication op counts
/// Finalize has put in `res`.
BoundClass ClassifyBound(const ScheduleResult& res, int compute_occupancy,
                         const MachineConfig& m, int rec_mii) {
  const double ii = res.ii;
  const double fu_frac =
      static_cast<double>(compute_occupancy) / (m.num_fus * ii);
  const double mem_frac =
      static_cast<double>(res.mem_ops_per_iter) / (m.num_mem_ports * ii);
  double comm_frac = 0.0;
  const RFConfig& rf = m.rf;
  if (rf.HasClusters()) {
    auto frac = [&](int count, long bandwidth) {
      if (bandwidth <= 0) return 0.0;
      return static_cast<double>(count) / (static_cast<double>(bandwidth) * ii);
    };
    if (rf.IsHierarchical()) {
      const long lp_bw = rf.UnboundedPorts()
                             ? 1L << 20
                             : static_cast<long>(rf.clusters) * rf.lp;
      const long sp_bw = rf.UnboundedPorts()
                             ? 1L << 20
                             : static_cast<long>(rf.clusters) * rf.sp;
      comm_frac = std::max(frac(res.stats.loadr_ops, lp_bw),
                           frac(res.stats.storer_ops, sp_bw));
    } else {
      comm_frac = frac(res.stats.move_ops, rf.buses);
    }
  }
  const double rec_frac = rec_mii > 1 ? rec_mii / ii : 0.0;

  // Winner = the component closest to saturating the achieved II.
  double best = mem_frac;
  BoundClass cls = BoundClass::kMemPort;
  if (fu_frac > best) {
    best = fu_frac;
    cls = BoundClass::kFU;
  }
  if (rec_frac > best) {
    best = rec_frac;
    cls = BoundClass::kRecurrence;
  }
  if (comm_frac > best) {
    best = comm_frac;
    cls = BoundClass::kComm;
  }
  return cls;
}

}  // namespace

ScheduleResult AttemptContext::Finalize(const MIIInfo& mii, int ii) {
  ScheduleResult res;
  res.ok = true;
  res.ii = ii;
  res.res_mii = mii.res_mii;
  res.rec_mii = mii.rec_mii;
  res.mii = mii.MII();
  // Scheduling is done: stop tracking before Normalize shifts cycles
  // and the graph/schedule are copied into the result.
  st_.pressure.Detach();
  st_.sched->Normalize();
  res.sc = st_.sched->StageCount();
  res.stats = instr_.stats();
  res.stats.restarts = ii - res.mii;
  // Count compute, communication and memory ops in the final graph, in
  // the one walk the stats and the bound class share.
  res.stats.comm_ops = 0;
  res.stats.loadr_ops = 0;
  res.stats.storer_ops = 0;
  res.stats.move_ops = 0;
  res.stats.spill_loads = 0;
  res.stats.spill_stores = 0;
  res.mem_ops_per_iter = 0;
  int compute_occupancy = 0;
  for (NodeId v = 0; v < st_.g.NumSlots(); ++v) {
    if (!st_.g.IsAlive(v)) continue;
    const Node& n = st_.g.node(v);
    if (IsCompute(n.op)) {
      compute_occupancy += IsUnpipelined(n.op) ? m_.lat.Of(n.op) : 1;
    }
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
  const int rec_final = RecMII(st_.g, m_.lat, recurrence_scratch_);
  res.bound = ClassifyBound(res, compute_occupancy, m_, rec_final);
  // Copies: the working graph, schedule and overrides keep their buffers
  // for the next attempt or run.
  res.graph = DDG(st_.g);
  res.schedule = *st_.sched;
  res.overrides = st_.overrides;
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

namespace {

/// Reservation-table entries a thread's workspace may keep between runs:
/// 2 MiB of 4-byte entries, the order of what a graph at the ejection
/// window holds. Every machine of the paper experiments stays below it
/// after an escalation walk to the default max_ii (8C8S64/2-1 peaks at
/// about 360 K entries); units some 64 FUs wide at an II in the
/// thousands go past it.
inline constexpr size_t kRetainedTableEntries = size_t{1} << 19;

/// Edge records a thread's workspace may keep between runs: 2 MiB of
/// records. An attempt's removed edges stay in the working graph's table
/// until the next reset, so the table grows with an attempt's edge churn;
/// the paper experiments peak at about 14 K records (0.5 MiB).
inline constexpr size_t kRetainedEdgeRecords =
    (size_t{2} << 20) / sizeof(EdgeRecord);

/// The calling thread's engine workspace for the length of one run. A
/// nested run on the same thread (nothing schedules from inside the
/// engine today) gets a private workspace instead of sharing it. A run
/// whose working graph outgrew the ejection window or kRetainedEdgeRecords,
/// or whose reservation tables outgrew kRetainedTableEntries, drops the
/// workspace at the end, so one huge loop, edge churn or II cannot pin its
/// tables on a long-lived thread.
class WorkspaceLease {
 public:
  WorkspaceLease() {
    Slot& slot = ThreadSlot();
    if (slot.busy) {
      private_ = std::make_unique<EngineWorkspace>();
      ws_ = private_.get();
      return;
    }
    if (slot.ws == nullptr) slot.ws = std::make_unique<EngineWorkspace>();
    slot.busy = true;
    ws_ = slot.ws.get();
  }
  ~WorkspaceLease() {
    if (private_ != nullptr) return;
    Slot& slot = ThreadSlot();
    slot.busy = false;
    const AttemptContext& ctx = slot.ws->ctx;
    if (ctx.graph().NodeCapacity() > kEjectWindow ||
        ctx.graph().EdgeCapacity() > kRetainedEdgeRecords ||
        ctx.TableCapacity() > kRetainedTableEntries) {
      slot.ws.reset();
    }
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  EngineWorkspace& operator*() const { return *ws_; }

 private:
  struct Slot {
    std::unique_ptr<EngineWorkspace> ws;
    bool busy = false;
  };
  static Slot& ThreadSlot() {
    thread_local Slot slot;
    return slot;
  }

  EngineWorkspace* ws_ = nullptr;
  std::unique_ptr<EngineWorkspace> private_;
};

}  // namespace

ScheduleResult EngineDriver::Run() {
  // The engine's phases are untimed, trace spans only: an untraced run
  // reads no clock (the service times each MirsHC call as `schedule`).
  obs::Phase loop_phase({"sched", "loop"});
  loop_phase.set_detail(original_.name());
  const WorkspaceLease lease;
  EngineWorkspace& ws = *lease;
  {
    const obs::Phase ordering_phase({"phase", "ordering"});
    sched::HrmsOrder(original_, m_.lat, ws.ordering, ws.order);
  }
  MIIInfo mii;
  if (opt_.precomputed_mii) {
    mii = *opt_.precomputed_mii;
  } else {
    // The ordering has already walked the SCCs and bounded each
    // recurrence; its sets sort by descending RecMII, so the front one's
    // is the loop's (1 without a recurrence).
    const obs::Phase mii_phase({"phase", "mii"});
    const auto& recs = ws.ordering.rec_sets;
    mii.res_mii = ResMII(original_, m_);
    mii.rec_mii = recs.empty() ? 1 : recs.front().rec_mii;
  }
  ws.ctx.spill().tally() = {};
  // Warm-start gate: one seeded attempt before the cold walk. A failed (or
  // rejected) seed falls through to the cold path with the fallback counted
  // on the result — never silent.
  WarmStartTelemetry warm;
  if (opt_.warm_start != nullptr && opt_.warm_start->ok) {
    if (std::optional<ScheduleResult> res = RunWarm(mii, ws)) {
      spill_tally_ = ws.ctx.spill().tally();
      return *res;
    }
    warm.attempted = true;
    warm.fallback = true;
  }
  ScheduleResult res = RunSerial(mii, ws);
  res.warm = warm;
  spill_tally_ = ws.ctx.spill().tally();
  return res;
}

std::optional<ScheduleResult> EngineDriver::RunWarm(const MIIInfo& mii,
                                                    EngineWorkspace& ws) {
  static obs::Counter& used_counter = obs::GetCounter("engine.warm.used");
  static obs::Counter& fallback_counter =
      obs::GetCounter("engine.warm.fallback");
  const ScheduleResult& seed = *opt_.warm_start;
  // The escalation loop starts at the seed's II instead of MII (never below
  // the current MII: the perturbed loop cannot schedule there, and the
  // seeded MRT would not even hold the replayed rows).
  const int start_ii = std::max(mii.MII(), seed.ii);
  if (start_ii <= opt_.max_ii) {
    AttemptContext& ctx = ws.ctx;
    ctx.Bind(original_, m_, opt_, base_overrides_, ws.order, incremental_);
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

ScheduleResult EngineDriver::RunSerial(const MIIInfo& mii,
                                       EngineWorkspace& ws) {
  AttemptContext& ctx = ws.ctx;
  ctx.Bind(original_, m_, opt_, base_overrides_, ws.order, incremental_);
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
