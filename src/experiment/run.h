// Experiment runner: executes registered experiments through the batch
// scheduling service and renders the paper-reproduction report.
//
// All scheduling cells of the selected experiments are expanded into ONE
// flat service::RunBatch call — deduplicated by schedule-cache key, so a
// cell shared between experiments (e.g. the characterized S128 baseline
// appears in Tables 1 and 6) is scheduled once — and backed by the
// session's cache tiers: a warm rerun of the whole paper is served from
// disk. Binding-prefetch cells carry their per-loop latency
// overrides in the BatchRequest (part of the cache key). The run is one
// streamed pass: at plan time each request gets the report cells it feeds
// and its distinct (loop trip, loop invocations) memory replays, and the
// batch lane that completes the request runs those replays, writes the
// cells' LoopMetrics and drops the schedule. No batch-wide set of
// schedules is ever held; only the serial aggregation follows the batch.
//
// Reports are deterministic: rows, reference deltas and verdicts only, no
// timings or cache flags — a cold and a warm run emit byte-identical CSV
// and markdown, which is the subsystem's acceptance check (`repro
// --smoke` and CI enforce it).
#pragma once

#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/paper_ref.h"
#include "service/batch.h"
#include "service/cache_tier.h"

namespace hcrf::service {
class SchedulerService;
}

namespace hcrf::experiment {

struct ReproOptions {
  /// Parallelism of the options form's session (ServiceConfig::threads:
  /// 0 = hardware concurrency); the session form uses the session's.
  int threads = 0;
  /// Run each experiment on its bounded smoke slice instead of the full
  /// workload. Workload-dependent reference values are reported but not
  /// enforced (the slice shifts them by construction).
  bool smoke = false;
};

/// One reference value checked against a report row.
struct RefCheck {
  const PaperRef* ref = nullptr;
  double measured = 0.0;
  double delta = 0.0;   ///< measured - paper.
  bool found = false;   ///< The aggregation emitted the (row, metric).
  bool enforced = false;  ///< Counts toward ref_failures when failing.
  bool passed = false;
  /// "pass", "FAIL", "n/a" (workload-dependent ref on a smoke slice) or
  /// "missing" (no matching report row; always a failure).
  std::string verdict;
};

struct ExperimentResult {
  std::string name;
  std::string title;
  std::size_t num_loops = 0;
  int cells = 0;       ///< Scheduling cells (0 for hardware-model-only).
  int cells_failed = 0;
  /// Per-(machine, engine) scheduling-failure accounting: one line per
  /// variant with failures ("<machine>/<engine>: N of L loops failed").
  /// Failures are experiment data, never silently dropped rows.
  std::vector<std::string> failure_notes;
  std::vector<MetricValue> rows;
  std::vector<RefCheck> refs;  ///< In paper_ref table order.
};

struct ReproReport {
  bool smoke = false;
  std::vector<ExperimentResult> experiments;
  /// Batch/cache run metadata (stdout summary only; never in reports).
  service::TierStats cache;
  int requests = 0;   ///< Deduplicated scheduling requests dispatched.
  int scheduled = 0;  ///< Fresh MirsHC runs.
  int hits = 0;       ///< Requests served from the persistent cache.
  int ref_failures = 0;  ///< Enforced reference values out of tolerance.
  /// Batch wall: scheduling plus, on the same lanes, every request's
  /// memory replays and cell metrics.
  double seconds = 0.0;
  /// Summed ReplayLoop seconds over the batch lanes (part of `seconds`;
  /// stdout summary only).
  double replay_seconds = 0.0;
  /// Serial wall after the batch: failure notes, aggregation and
  /// reference joins (stdout summary only).
  double metrics_seconds = 0.0;
  int replayed_cells = 0;    ///< Cells whose stall cycles come from replay.
  int distinct_replays = 0;  ///< ReplayLoop runs those cells share.
  long replay_accesses = 0;  ///< Summed ReplayResult::accesses of those.
  long replay_misses = 0;    ///< Summed ReplayResult::misses of those.
  /// Summed per-request phase timings of the scheduling batch (stdout
  /// summary only, like `cache`: reports stay byte-identical cold/warm).
  service::RequestTiming timing;

  int RefChecks() const;
  int RefPasses() const;
};

/// Runs the selected experiments (every registry entry when `selection`
/// is empty). Throws on an unknown suite name; per-cell scheduling
/// failures are data and surface in the results. The session form
/// schedules through an existing resident session (report.cache is the
/// per-call delta); the options form wraps a transient session with no
/// cache, `opt.threads` wide.
ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt,
                           service::SchedulerService& session);
ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt);

/// Deterministic renderings (identical cold and warm).
/// CSV: experiment,row,metric,value,paper,delta,verdict — one line per
/// report row, plus a line per unmatched reference value.
std::string ReproCsv(const ReproReport& report);
std::string ReproMarkdown(const ReproReport& report);

}  // namespace hcrf::experiment
