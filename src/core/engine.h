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
// selector, budget, instrumentation, scratch buffers). The driver reuses
// one context across the whole II-escalation walk, and the warm-start gate
// runs its seeded attempt on a context of its own.
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
/// (TryII resets it) and self-contained — no state is shared between two
/// contexts beyond the immutable inputs (original graph, machine, options,
/// canonicalized overrides, node order), so concurrent runs of one loop
/// never interfere. The context is the only
/// layer that mutates the reservation table through placement, so it
/// implements NodePlacer for the comm rewriter and spill engine it owns.
/// `incremental` = false runs the reference pressure path (see
/// EngineDriver::UseReferencePressure).
class AttemptContext : public NodePlacer {
 public:
  AttemptContext(const DDG& original, const MachineConfig& m,
                 const MirsOptions& opt,
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
  /// the schedule, recounts ops, classifies the bound; moves the graph and
  /// schedule out, so the context must be Reset by TryII before reuse).
  ScheduleResult Finalize(const MIIInfo& mii, int ii);

  Instrumentation& instr() { return instr_; }

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
  /// left to the repair cascade). Placements go through the SchedState
  /// Assign funnel — the pressure tracker absorbs them as regular deltas —
  /// but spend no budget and count as no attempts: ScheduleStats keeps
  /// measuring repair work only. Returns the number of seeded placements.
  int SeedFrom(const ScheduleResult& seed);

  void Eject(NodeId victim);
  void EjectScheduledNode(NodeId v);

  /// Structural cluster constraints (communication and spill copies follow
  /// the scheduled endpoint they serve); defers to the selector policy for
  /// unconstrained nodes.
  int SelectCluster(NodeId u);

  // ---- immutable inputs -------------------------------------------------
  const DDG& original_;
  const MachineConfig& m_;
  const MirsOptions& opt_;
  const sched::LatencyOverrides& base_overrides_;
  const std::vector<NodeId>& order_;  ///< Ordering, computed once per run.
  const bool incremental_;

  // ---- layers ----------------------------------------------------------
  SchedState st_;
  Instrumentation instr_;
  CommRewriter comm_;
  SpillEngine spill_;
  std::unique_ptr<ClusterSelector> selector_;
  BalancedClusterSelector structural_fallback_;

  // ---- per-attempt state -----------------------------------------------
  BudgetAccount budget_;
  int since_spill_check_ = 0;

  // Scratch buffers reused across (non-reentrant) forced placements so the
  // hot loop never allocates.
  std::vector<NodeId> conflicts_scratch_;
  std::vector<NodeId> violated_scratch_;
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
  ScheduleResult RunSerial(const MIIInfo& mii);
  /// Warm-start gate: one seeded attempt at max(MII, seed.ii). Returns the
  /// finalized result when it validates (warm.used); nullopt sends the
  /// caller down the cold path with warm.fallback stamped on its result.
  /// Warm II <= cold II is not guaranteed: a used seed lands at
  /// max(MII, seed.ii), but the heuristic cold walk can find a lower II
  /// than the seed's even under a latency increase. The property is only
  /// measured on the test and CI samples; a wider sweep finds it violated
  /// (ROADMAP open item 2).
  std::optional<ScheduleResult> RunWarm(const MIIInfo& mii);
  ScheduleResult FailResult(const MIIInfo& mii,
                            const ScheduleStats& stats) const;

  // ---- immutable inputs ------------------------------------------------
  const DDG& original_;
  MachineConfig m_;
  MirsOptions opt_;
  sched::LatencyOverrides base_overrides_;
  std::vector<NodeId> order_;  ///< Ordering, computed once per run.
  bool incremental_ = true;
};

}  // namespace hcrf::core
