// Declarative paper-reproduction experiments.
//
// Each artifact of conf_ipps_ZalameaLAV03 — Figures 1/4/6, Tables 1–6 and
// the four design ablations — is a registered Experiment: a machine axis
// (RF organizations or resource shapes), an engine-option axis (iterative
// on/off, budget ratios, prefetch policies), a workload selection, and an
// aggregation kernel that folds the per-(machine, engine, loop) metrics
// into the artifact's report rows. The specs are data; execution is the
// experiment runner's job (run.h), which schedules every cell of every
// selected experiment in one deduplicated, cache-backed batch on the
// process worker pool, each request built on the lane that runs it, so a
// warm rerun of the whole paper is served from the persistent schedule
// cache.
//
// Reference values live in paper_ref.h as structured data; the runner
// joins them against the aggregation rows by (row, metric) and renders
// delta-vs-paper columns with explicit pass/fail verdicts.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/mirs.h"
#include "machine/machine_config.h"
#include "memsim/prefetch.h"
#include "perf/metrics.h"
#include "workload/workload.h"

namespace hcrf::experiment {

/// One point on an experiment's machine axis, fully resolved (RF parsed,
/// hardware characterization applied where the artifact calls for it).
struct MachineVariant {
  std::string label;  ///< Report label ("4C32", "8+4", "buses=2").
  MachineConfig machine;
};

/// One point on an experiment's engine-option axis.
struct EngineVariant {
  std::string label = "default";
  core::MirsOptions options;
  /// Binding-prefetch policy; non-kNone variants schedule with per-load
  /// latency overrides (computed per loop and machine by the runner).
  memsim::PrefetchMode prefetch = memsim::PrefetchMode::kNone;
  /// Replay the memory system for stall cycles (Figure 6's real memory).
  bool simulate_memory = false;
};

/// Workload selection. An empty suite name means the experiment does not
/// schedule at all (Tables 2 and 5 evaluate the hardware model only).
struct WorkloadSpec {
  std::string suite;       ///< workload::SharedSuiteByName name; "" = none.
  std::size_t slice = 0;   ///< Strided SuiteSlice size; 0 = whole suite.
  std::size_t smoke_slice = 8;  ///< Bounded slice used by --smoke.
};

/// One (row, metric, value) cell of an experiment's report.
struct MetricValue {
  std::string row;
  std::string metric;
  double value = 0.0;
};

struct Experiment;

/// Everything an aggregation kernel sees: the spec and the per-cell loop
/// metrics, indexed [machine][engine][loop]. Failed cells carry
/// ok == false; kernels must account for them explicitly (per-engine
/// failure counts are also reported generically by the runner — no row is
/// ever dropped silently).
struct ExperimentData {
  const Experiment* def = nullptr;
  bool smoke = false;  ///< Running on the bounded --smoke slice.
  std::vector<const workload::Loop*> loops;
  std::vector<perf::LoopMetrics> cells;

  const perf::LoopMetrics& At(std::size_t machine, std::size_t engine,
                              std::size_t loop) const;
  /// perf::Aggregate over one (machine, engine) row of cells.
  perf::SuiteMetrics Sum(std::size_t machine, std::size_t engine) const;
};

/// Folds the cells into report rows. Kernels are pure: deterministic rows
/// from deterministic metrics (no timings), which is what makes cold and
/// warm reports byte-identical.
using AggregateFn = std::vector<MetricValue> (*)(const ExperimentData&);

/// A registered paper artifact.
struct Experiment {
  std::string name;   ///< Stable id ("table4", "fig6", "ablation_buses").
  std::string title;  ///< One-line description for --list and reports.
  WorkloadSpec workload;
  std::vector<MachineVariant> machines;
  std::vector<EngineVariant> engines;
  AggregateFn aggregate = nullptr;

  /// Scheduling cells per run (0 for hardware-model-only experiments).
  std::size_t CellsPerLoop() const { return machines.size() * engines.size(); }
};

/// The 13 registered experiments, in paper order. Built once per process.
const std::vector<Experiment>& Registry();

/// Lookup by name; nullptr when unknown.
const Experiment* FindExperiment(std::string_view name);

}  // namespace hcrf::experiment
