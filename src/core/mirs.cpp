#include "core/mirs.h"

#include "core/engine.h"
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

}  // namespace hcrf::core
