// Shared mutable state of one II attempt of the iterative engine.
//
// Everything the engine layers (driver, cluster/spill policies,
// communication rewriter, spill engine) read and write while scheduling
// lives here: the working graph (original nodes plus inserted
// communication/spill copies), the partial schedule and reservation table,
// the priority list, and the per-node bookkeeping that force-and-eject
// needs (last placement cycle, ejection counts). The layers communicate
// only through this state and the NodePlacer interface (comm_rewrite.h), so
// each can be tested in isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "sched/mrt.h"
#include "sched/pressure_tracker.h"
#include "sched/schedule.h"

namespace hcrf::core {

inline constexpr int kNoCycle = std::numeric_limits<int>::min();

/// Node ids below this are ejection-counted (SchedState::eject_count); a
/// loop whose working graph outgrows it also gives its engine workspace
/// back at the end of its run (engine.cpp).
inline constexpr size_t kEjectWindow = 4096;

/// Cycles lo..hi of a window scan (ModuloReservationTable::FindFirstSlot).
struct ScanRange {
  int lo;
  int hi;
};

/// Dependence window of a node w.r.t. its scheduled neighbours, and the
/// HRMS rules that turn it into a placement, each written once for both
/// directions. kDown (bottom-up) needs has_succ.
struct Window {
  int early = kNoCycle;  ///< max over scheduled predecessors.
  int late = kNoCycle;   ///< min over scheduled successors (kNoCycle=none).
  bool has_pred = false;
  bool has_succ = false;

  /// Top-down (kUp from `early`) when predecessors anchor the node,
  /// bottom-up (kDown from `late`) when only successors do, or when a
  /// late-biased node has a successor.
  sched::ScanDir Direction(bool late_biased) const {
    return has_succ && (!has_pred || late_biased) ? sched::ScanDir::kDown
                                                  : sched::ScanDir::kUp;
  }
  /// At most II cycles (the MRT is periodic in II) from the anchored edge,
  /// clipped at the other edge when that side is anchored too.
  ScanRange Range(int ii, sched::ScanDir dir) const {
    if (dir == sched::ScanDir::kDown) {
      return {has_pred ? std::max(early, late - ii + 1) : late - ii + 1, late};
    }
    return {early, has_succ ? std::min(late, early + ii - 1) : early + ii - 1};
  }
  /// A forced placement lands on the anchored edge, or one cycle past the
  /// node's previous placement so repeated forcing makes progress. Only a
  /// bottom-up cycle is clamped, up to `early`, when a predecessor anchors
  /// the node and it is not `desperate`.
  int ForcedCycle(sched::ScanDir dir, int prev_cycle, bool desperate) const {
    if (dir == sched::ScanDir::kUp) {
      return prev_cycle == kNoCycle ? early : std::max(early, prev_cycle + 1);
    }
    const int t =
        prev_cycle == kNoCycle ? late : std::min(late, prev_cycle - 1);
    return has_pred && !desperate ? std::max(t, early) : t;
  }
};

struct SchedState {
  explicit SchedState(const MachineConfig& machine) : m(machine) {}

  // Non-copyable: the layers hold references into this state.
  SchedState(const SchedState&) = delete;
  SchedState& operator=(const SchedState&) = delete;

  /// Rebuilds the state for a fresh attempt at the given II: working graph
  /// reset to the original, empty schedule/MRT, bookkeeping cleared, every
  /// buffer kept (the machine may differ from the previous attempt's). The
  /// caller (engine driver) fills in priorities and the unscheduled set
  /// from its ordering policy. `incremental` attaches the incremental
  /// pressure tracker; false is the reference path (full ComputePressure
  /// per spill check) that tests/test_pressure_tracker.cpp runs to prove
  /// both produce bit-identical schedules. Both paths pick with the same
  /// bitset scan (PickHighestPriority).
  void Reset(const DDG& original, const sched::LatencyOverrides& base, int ii,
             bool incremental = true);

  int ii() const { return sched->ii(); }

  /// Dependence latency of an edge under the active latency overrides.
  int LatOf(const Edge& e) const {
    return sched::DependenceLatency(g, e, m.lat, overrides);
  }

  Window ComputeWindow(NodeId u) const;

  /// Grows the per-node arrays to cover `id` (newly inserted nodes).
  void GrowTo(NodeId id);

  void MarkUnscheduled(NodeId v);
  void MarkScheduled(NodeId v);
  bool IsUnscheduled(NodeId v) const {
    return (unscheduled_[Word(v)] >> Bit(v)) & 1u;
  }

  /// Schedule-mutation funnels: every placement and removal goes through
  /// these so the incremental pressure tracker and the per-cluster usage
  /// counters can never miss a delta. Assign writes the schedule only;
  /// Place also reserves `needs` in the MRT at p.cycle, takes `u` off the
  /// priority list and remembers the cycle (precondition: CanPlace).
  void Assign(NodeId u, sched::Placement p) {
    sched->Assign(u, p);
    BumpClusterUse(u, p.cluster, +1);
    pressure.OnPlaced(u);
  }
  void Place(NodeId u, const sched::ResUseList& needs, sched::Placement p);
  /// Removes `v` from the MRT and schedule, remembering its last cycle so a
  /// forced re-placement makes progress.
  void Unplace(NodeId v);

  /// The live unscheduled node with the highest priority, the lowest id
  /// on a tie; kNoNode when none is left. One ascending scan over the
  /// unscheduled bitset.
  NodeId PickHighestPriority() const;

  /// True for scheduler-inserted communication chain nodes (owned by the
  /// communication rewriter; spill copies are not chain nodes).
  bool IsCommChainNode(NodeId v) const {
    const Node& n = g.node(v);
    return IsCommunication(n.op) && n.inserted && !n.spill;
  }

  // ---- immutable over the attempt --------------------------------------
  const MachineConfig& m;

  // ---- per-attempt state -----------------------------------------------
  DDG g;
  sched::LatencyOverrides overrides;
  std::unique_ptr<sched::ModuloReservationTable> mrt;
  std::unique_ptr<sched::PartialSchedule> sched;
  std::vector<double> priority;
  int num_unscheduled = 0;
  std::vector<int> prev_cycle;  ///< Last placement cycle (kNoCycle = never).
  /// Ejections per node id below kEjectWindow; ids at or above it stay
  /// uncounted.
  std::vector<long> eject_count;
  bool churning = false;  ///< Livelocked eject ping-pong detected.

  /// Scheduled compute ops / cluster-bank defs per cluster, maintained by
  /// the Assign/Unplace funnels. The balanced cluster selector's soft
  /// balancing terms used to rescan every slot per selection; these are
  /// the same sums kept incrementally.
  std::vector<int> cluster_fu_use;
  std::vector<int> cluster_defs;

  /// Incremental per-bank MaxLive (attached to `g`/`sched` unless Reset
  /// chose the reference path; detached and inert there).
  sched::PressureTracker pressure;

 private:
  void BumpClusterUse(NodeId u, int cluster, int delta) {
    if (cluster < 0 || static_cast<size_t>(cluster) >= cluster_fu_use.size()) {
      return;
    }
    const OpClass op = g.node(u).op;
    if (IsCompute(op)) cluster_fu_use[static_cast<size_t>(cluster)] += delta;
    if (DefinesValue(op) &&
        sched::DefBank(op, cluster, m.rf) == static_cast<sched::BankId>(cluster)) {
      cluster_defs[static_cast<size_t>(cluster)] += delta;
    }
  }

  static size_t Word(NodeId v) { return static_cast<size_t>(v) / 64; }
  static unsigned Bit(NodeId v) { return static_cast<unsigned>(v) % 64; }

  /// Bit v set while node v waits in the priority list.
  std::vector<std::uint64_t> unscheduled_;
};

}  // namespace hcrf::core
