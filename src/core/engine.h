// Engine driver of MIRS_HC: owns the II-escalation loop, the budget
// accounting of the iterative algorithm, and the force-and-eject
// backtracking. Node order is the HRMS ordering (sched/ordering.h),
// cluster choice lives in the selectors (policies.h), cross-bank edge
// rewriting in the communication rewriter (comm_rewrite.h),
// register-pressure handling and the spill victim in the spill engine
// (spill.h), and counters / events in the instrumentation layer
// (instrument.h).
//
// The per-attempt machinery is packaged as an AttemptContext: a
// self-contained bundle of everything one II attempt mutates (working
// graph, schedule/MRT, priority list, comm rewriter, spill engine, cluster
// selector, budget, instrumentation, scratch buffers). The context lives
// in a per-thread EngineWorkspace, together with the ordering and
// recurrence scratch and the node order, and each run rebinds it: the
// warm-start gate's seeded attempt and the whole II-escalation walk reuse
// its buffers, and so does the next run on the same thread. Once they have
// grown to the loops a thread schedules, an attempt allocates nothing and
// a run allocates little beyond its result (tests/test_alloc_gate.cpp).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/comm_rewrite.h"
#include "core/instrument.h"
#include "core/mirs.h"
#include "core/policies.h"
#include "core/sched_state.h"
#include "core/spill.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "sched/ordering.h"
#include "sched/validate.h"

namespace hcrf::core {

/// Budget of the iterative algorithm (the paper's Budget_Ratio): the run
/// starts with budget_ratio attempts per original node, every inserted
/// communication/spill node grants budget_ratio more, and each placement
/// spends one. The total grant is capped: an eject/re-insert churn cycle
/// would otherwise grant budget faster than scheduling spends it (beyond
/// the cap the attempt fails and the II is bumped, which is the paper's
/// escape hatch anyway).
struct BudgetAccount {
  double remaining = 0;
  double granted = 0;
  double grant_cap = 0;

  void Start(double initial, double cap) {
    remaining = initial;
    granted = 0;
    grant_cap = cap;
  }
  /// Returns the amount actually granted: `amount` clamped to the cap's
  /// remaining headroom (0 once the cap is reached), so the total grant
  /// never overshoots grant_cap.
  double Grant(double amount) {
    const double clamped = std::min(amount, grant_cap - granted);
    if (clamped <= 0) return 0;
    remaining += clamped;
    granted += clamped;
    return clamped;
  }
  bool exhausted() const { return remaining <= 0; }
  void Spend(double amount) { remaining -= amount; }
};

/// Outcome of one II attempt: scheduled, or the check that ended it. The
/// `attempt` trace span carries the name, so a failed II explains itself
/// without a rerun.
enum class AttemptStatus : std::uint8_t {
  kScheduled,
  kChurn,         ///< A node was ejected over 60 times (eject ping-pong).
  kBudget,        ///< Budget_Ratio spent with nodes still unscheduled.
  kComm,          ///< A cross-bank communication chain could not be placed.
  kPlace,         ///< A node found no slot and could not be forced into one.
  kOverCapacity,  ///< A bank's MaxLive exceeds its registers after spilling.
  kInvalid,       ///< The final sched::Validate rejected the schedule.
};

constexpr std::string_view ToString(AttemptStatus s) {
  switch (s) {
    case AttemptStatus::kScheduled: return "scheduled";
    case AttemptStatus::kChurn: return "churn";
    case AttemptStatus::kBudget: return "budget";
    case AttemptStatus::kComm: return "comm";
    case AttemptStatus::kPlace: return "place";
    case AttemptStatus::kOverCapacity: return "over-capacity";
    case AttemptStatus::kInvalid: return "invalid";
  }
  return "?";
}

/// Everything one II attempt owns and mutates. A context is reusable
/// (TryII resets it, Bind points it at another run) and self-contained —
/// no state is shared between two contexts beyond the immutable inputs
/// (original graph, node order), so concurrent runs of one loop never
/// interfere. The context is the only
/// layer that mutates the reservation table through placement, so it
/// implements NodePlacer for the comm rewriter and spill engine it owns.
/// `incremental` = false runs the reference pressure path (see
/// EngineDriver::UseReferencePressure).
class AttemptContext : public NodePlacer {
 public:
  /// An unbound context; Bind it before the first attempt.
  AttemptContext();
  AttemptContext(const DDG& original, const MachineConfig& m,
                 const MirsOptions& opt,
                 const sched::LatencyOverrides& base_overrides,
                 const std::vector<NodeId>& order, bool incremental = true);

  // Not copyable or movable: the layers hold references into it.
  AttemptContext(const AttemptContext&) = delete;
  AttemptContext& operator=(const AttemptContext&) = delete;

  /// Points the context at one run's inputs and clears its statistics,
  /// keeping every buffer. `original` and `order` must outlive the run;
  /// the machine, options and overrides are copied.
  void Bind(const DDG& original, const MachineConfig& m, const MirsOptions& opt,
            const sched::LatencyOverrides& base_overrides,
            const std::vector<NodeId>& order, bool incremental = true);

  /// Runs one scheduling attempt at `ii` from a fresh state.
  AttemptStatus TryII(int ii);

  /// Warm-started attempt: resets to a fresh state, replays the seed's
  /// compatible placements (SeedFrom), then runs the normal placement /
  /// eject / spill cascade to repair whatever the seed could not cover.
  /// `seeded_out` (optional) receives the number of replayed placements.
  /// Failure semantics are identical to TryII — the caller falls back to
  /// the cold escalation walk.
  AttemptStatus TryIISeeded(const ScheduleResult& seed, int ii,
                            int* seeded_out = nullptr);

  /// Builds the final ScheduleResult from a successful TryII (normalizes
  /// the schedule, recounts ops, classifies the bound). The graph,
  /// schedule and overrides are copied out, so the context keeps its
  /// buffers; TryII resets it before reuse.
  ScheduleResult Finalize(const MIIInfo& mii, int ii);

  Instrumentation& instr() { return instr_; }

  /// The working graph: its table capacities are the largest graph and
  /// the most edge churn this context has seen since it was built.
  const DDG& graph() const { return st_.g; }
  /// Entries its two reservation tables (the schedule's and Validate's)
  /// hold: they grow with the widest machine and largest II it has tried.
  size_t TableCapacity() const;

  // NodePlacer (services for the comm rewriter and spill engine).
  NodeId CreateNode(Node n, double priority) override;
  bool PlaceNode(NodeId u, int cluster, int src_cluster) override;

 private:
  /// Resets every layer for an attempt at `ii` and refills the priority
  /// list — the common prologue of TryII and TryIISeeded.
  void BeginAttempt(int ii);
  /// The placement / eject / spill cascade through final validation: the
  /// remainder of an attempt after BeginAttempt (and optional seeding).
  AttemptStatus FinishAttempt(int ii);
  /// Replays `seed`'s placements that are still compatible with the
  /// current graph, machine and latencies (window re-checked against the
  /// live SchedState, so nodes whose constraints changed are skipped and
  /// left to the repair cascade). Placements go through SchedState::Place
  /// — the pressure tracker absorbs them as regular deltas —
  /// but spend no budget and count as no attempts: ScheduleStats keeps
  /// measuring repair work only. Returns the number of seeded placements.
  int SeedFrom(const ScheduleResult& seed);

  void Eject(NodeId victim);
  void EjectScheduledNode(NodeId v);

  /// Structural cluster constraints (communication and spill copies follow
  /// the scheduled endpoint they serve); defers to the selector policy for
  /// unconstrained nodes.
  int SelectCluster(NodeId u);

  // ---- inputs of the bound run ----------------------------------------
  const DDG* original_ = nullptr;
  MachineConfig m_;
  MirsOptions opt_;
  sched::LatencyOverrides base_overrides_;
  const std::vector<NodeId>* order_ = nullptr;  ///< Computed once per run.
  bool incremental_ = true;

  // ---- layers ----------------------------------------------------------
  SchedState st_;  ///< Reads m_.
  Instrumentation instr_;
  CommRewriter comm_;
  SpillEngine spill_;
  /// One instance per policy; opt_.cluster_policy picks `selector_`. The
  /// balanced one also places structurally constrained copies whose
  /// endpoint is not scheduled yet.
  BalancedClusterSelector balanced_;
  RoundRobinClusterSelector round_robin_;
  FirstFitClusterSelector first_fit_;
  ClusterSelector* selector_ = &balanced_;

  // ---- per-attempt state -----------------------------------------------
  BudgetAccount budget_;
  int since_spill_check_ = 0;

  // Scratch buffers reused across (non-reentrant) forced placements so the
  // hot loop never allocates.
  std::vector<NodeId> conflicts_scratch_;
  std::vector<NodeId> violated_scratch_;
  /// Consumers to re-communicate, one segment per level of a re-entrant
  /// ejection cascade (see Eject).
  std::vector<NodeId> eject_stack_;
  sched::ValidateScratch validate_scratch_;
  GraphScratch recurrence_scratch_;  ///< Finalize's RecMII.
};

/// What the engine reuses across runs on one thread: the attempt context,
/// the ordering and recurrence scratch, and the node order. MirsHC takes
/// the calling thread's workspace for the length of a run.
struct EngineWorkspace {
  AttemptContext ctx;
  sched::OrderingScratch ordering;
  std::vector<NodeId> order;
};

class EngineDriver {
 public:
  EngineDriver(const DDG& loop, const MachineConfig& m, const MirsOptions& opt,
               const sched::LatencyOverrides& base_overrides);

  /// Runs the warm-start gate (when a seed is attached), then the
  /// II-escalation walk from MII to opt.max_ii.
  ScheduleResult Run();

  /// Test hook: every attempt runs the reference pressure path (the
  /// tracker stays detached and each spill check recomputes
  /// ComputePressure in full) instead of the incremental tracker.
  /// Schedules are bit-identical either way; the reference path is the
  /// oracle of the `PressureTrackerEngine.BitIdenticalSchedules` ctest.
  void UseReferencePressure() { incremental_ = false; }

 private:
  ScheduleResult RunSerial(const MIIInfo& mii, EngineWorkspace& ws);
  /// Warm-start gate: one seeded attempt at max(MII, seed.ii). Returns the
  /// finalized result when it validates (warm.used); nullopt sends the
  /// caller down the cold path with warm.fallback stamped on its result.
  /// Warm II <= cold II is not guaranteed: a used seed lands at
  /// max(MII, seed.ii), but the heuristic cold walk can find a lower II
  /// than the seed's even under a latency increase. The property is only
  /// measured on the test and CI samples; a wider sweep finds it violated
  /// (ROADMAP open item 2).
  std::optional<ScheduleResult> RunWarm(const MIIInfo& mii,
                                        EngineWorkspace& ws);
  ScheduleResult FailResult(const MIIInfo& mii,
                            const ScheduleStats& stats) const;

  // ---- immutable inputs ------------------------------------------------
  const DDG& original_;
  MachineConfig m_;
  MirsOptions opt_;
  sched::LatencyOverrides base_overrides_;
  bool incremental_ = true;
};

}  // namespace hcrf::core
