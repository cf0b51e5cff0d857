// Scheduler instrumentation layer: counters and events describing the work
// the iterative engine performed (placements, force-and-eject churn, spill
// decisions, budget consumption, II escalation).
//
// The counters are the quantitative side (surfaced through ScheduleResult
// and aggregated into perf::SuiteMetrics); `sched` trace instants, one per
// event while obs tracing is on, are the qualitative side. The engine
// funnels every state change through Instrumentation so the two can never
// disagree.
#pragma once

#include <cstdint>
#include <string_view>

#include "ddg/ddg.h"
#include "obs/trace.h"

namespace hcrf::core {

/// State changes the engine reports while scheduling one loop.
enum class SchedEvent : std::uint8_t {
  kNodePlaced,    ///< A node was placed in a free slot.
  kNodeForced,    ///< A node was force-placed (conflicts ejected).
  kNodeEjected,   ///< A scheduled node was kicked back to the priority list.
  kChainBuilt,    ///< A communication chain replaced a mismatched flow edge.
  kChainUndone,   ///< A chain was unwound and the direct edge restored.
  kSpillInserted, ///< The spill engine split a lifetime (or an invariant).
  kIIRestart,     ///< The current II failed; the engine escalates.
};

constexpr std::string_view ToString(SchedEvent e) {
  switch (e) {
    case SchedEvent::kNodePlaced: return "place";
    case SchedEvent::kNodeForced: return "force";
    case SchedEvent::kNodeEjected: return "eject";
    case SchedEvent::kChainBuilt: return "chain+";
    case SchedEvent::kChainUndone: return "chain-";
    case SchedEvent::kSpillInserted: return "spill";
    case SchedEvent::kIIRestart: return "restart";
  }
  return "?";
}

/// Counters accumulated over one MirsHC run (all II attempts).
struct ScheduleStats {
  long attempts = 0;    ///< Budget spent (nodes scheduled, incl. rescheds).
  long ejections = 0;   ///< Nodes kicked out by force-and-eject.
  long force_places = 0;  ///< Placements that needed Force_and_Eject.
  int restarts = 0;     ///< II increments over MII.
  int comm_ops = 0;     ///< Move/LoadR/StoreR nodes in the final graph.
  int spill_stores = 0; ///< Spill stores to memory (adds traffic).
  int spill_loads = 0;  ///< Spill loads from memory (adds traffic).
  int storer_ops = 0;   ///< StoreR nodes (cluster->shared copies).
  int loadr_ops = 0;    ///< LoadR nodes (shared->cluster copies).
  int move_ops = 0;     ///< Move nodes (bus copies).
  int spills_inserted = 0;  ///< Spill decisions taken (incl. reg-to-reg).
  long chains_built = 0;    ///< Communication chains created.
  long chains_undone = 0;   ///< Chains unwound by ejection.
  double budget_spent = 0;  ///< Total attempts charged against the budget.
  double budget_granted = 0;  ///< Budget granted by inserted nodes.
};

/// The engine's single funnel for counters + events.
class Instrumentation {
 public:
  ScheduleStats& stats() { return stats_; }
  const ScheduleStats& stats() const { return stats_; }

  void NodePlaced(NodeId n, int ii) {
    ++stats_.attempts;
    Emit(SchedEvent::kNodePlaced, n, ii);
  }
  void NodeForced(NodeId n, int ii) {
    ++stats_.attempts;
    ++stats_.force_places;
    Emit(SchedEvent::kNodeForced, n, ii);
  }
  void NodeEjected(NodeId n, int ii) {
    ++stats_.ejections;
    Emit(SchedEvent::kNodeEjected, n, ii);
  }
  void ChainBuilt(NodeId consumer, int ii) {
    // Communication work is part of the effort budget (the seed engine
    // charged one attempt per chain).
    ++stats_.attempts;
    ++stats_.chains_built;
    Emit(SchedEvent::kChainBuilt, consumer, ii);
  }
  void ChainUndone(NodeId consumer, int ii) {
    ++stats_.chains_undone;
    Emit(SchedEvent::kChainUndone, consumer, ii);
  }
  void SpillInserted(NodeId def, int ii) {
    ++stats_.spills_inserted;
    Emit(SchedEvent::kSpillInserted, def, ii);
  }
  void IIRestart(int next_ii) {
    Emit(SchedEvent::kIIRestart, kNoNode, next_ii);
  }
  void BudgetSpent(double amount) { stats_.budget_spent += amount; }
  void BudgetGranted(double amount) { stats_.budget_granted += amount; }

 private:
  void Emit(SchedEvent e, NodeId n, int ii) {
    if (obs::TraceEnabled()) {
      obs::Tracer::Shared().Instant("sched", ToString(e).data(), ii,
                                    static_cast<int>(n));
    }
  }

  ScheduleStats stats_;
};

}  // namespace hcrf::core
