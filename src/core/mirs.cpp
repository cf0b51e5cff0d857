#include "core/mirs.h"

#include <algorithm>

#include "core/engine.h"
#include "ddg/mii.h"
#include "obs/metrics.h"

namespace hcrf::core {

namespace {

/// Mirrors one finished run's counters into the process-wide registry —
/// once, from the final ScheduleResult, so the registry totals reconcile
/// exactly with the summed ScheduleStats of every MirsHC call (asserted in
/// test_obs.cpp). The engine's hot path never touches the registry.
void RecordRunMetrics(const ScheduleResult& res) {
  static obs::Counter& runs = obs::GetCounter("engine.runs");
  static obs::Counter& failed = obs::GetCounter("engine.failed_runs");
  static obs::Counter& attempts = obs::GetCounter("engine.attempts");
  static obs::Counter& ejections = obs::GetCounter("engine.ejections");
  static obs::Counter& forced = obs::GetCounter("engine.force_places");
  static obs::Counter& restarts = obs::GetCounter("engine.restarts");
  static obs::Counter& spills = obs::GetCounter("engine.spills_inserted");
  static obs::Counter& chains_built = obs::GetCounter("engine.chains_built");
  static obs::Counter& chains_undone = obs::GetCounter("engine.chains_undone");
  runs.Add(1);
  if (!res.ok) failed.Add(1);
  attempts.Add(res.stats.attempts);
  ejections.Add(res.stats.ejections);
  forced.Add(res.stats.force_places);
  restarts.Add(res.stats.restarts);
  spills.Add(res.stats.spills_inserted);
  chains_built.Add(res.stats.chains_built);
  chains_undone.Add(res.stats.chains_undone);
}

}  // namespace

std::string_view ToString(BoundClass b) {
  switch (b) {
    case BoundClass::kFU: return "FU";
    case BoundClass::kMemPort: return "MemPort";
    case BoundClass::kRecurrence: return "Rec";
    case BoundClass::kComm: return "Com";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

ScheduleResult MirsHC(const DDG& loop, const MachineConfig& m,
                      const MirsOptions& opt,
                      const sched::LatencyOverrides& load_overrides) {
  EngineDriver engine(loop, m, opt, load_overrides);
  ScheduleResult res = engine.Run();
  RecordRunMetrics(res);
  return res;
}

BoundClass ClassifyBound(const DDG& final_graph, const MachineConfig& m,
                         int achieved_ii, int rec_mii) {
  const DDG::OpCounts c = final_graph.CountOps(m.lat);
  const double ii = achieved_ii;
  const double fu_frac =
      static_cast<double>(c.compute_occupancy) / (m.num_fus * ii);
  const double mem_frac =
      static_cast<double>(c.memory) / (m.num_mem_ports * ii);
  double comm_frac = 0.0;
  const RFConfig& rf = m.rf;
  if (rf.HasClusters()) {
    int loadrs = 0;
    int storers = 0;
    int moves = 0;
    for (NodeId v = 0; v < final_graph.NumSlots(); ++v) {
      if (!final_graph.IsAlive(v)) continue;
      switch (final_graph.node(v).op) {
        case OpClass::kLoadR: ++loadrs; break;
        case OpClass::kStoreR: ++storers; break;
        case OpClass::kMove: ++moves; break;
        default: break;
      }
    }
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
      comm_frac = std::max(frac(loadrs, lp_bw), frac(storers, sp_bw));
    } else {
      comm_frac = frac(moves, rf.buses);
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

}  // namespace hcrf::core
