// Design-space sweep service: the paper's central experiment — the same
// loops scheduled by MIRS_HC under monolithic, clustered and hierarchical
// register-file organizations (Tables 2/5) — as a batch service.
//
// A sweep spec (`hcl 1 sweep`) names the workload (whole suites and/or
// graph files) and a grid of RF organizations: explicit paper-notation
// names plus an optional generative cross product of cluster counts ×
// per-cluster register capacities × shared-bank capacities. The executor
// expands the organization axis only and runs the (organization, loop)
// grid as one SchedulerService::RunBatch whose lanes build each cell's
// request from its index (the process worker pool plus the session's
// cache tiers, so a warm rerun is fully cache-served and the shared MII
// cache amortizes across configurations). It aggregates the results into
// per-organization comparison tables — achieved II vs MII, bound-class
// breakdown, communication / spill op counts — emitted as CSV and
// markdown.
//
// Spec grammar (canonical dump order; `#` comments allowed):
//     hcl 1 sweep
//     name <token>
//     suite <kernels|synth>          (zero or more)
//     graph <path>                   (zero or more; relative to the spec)
//     rf <organization>              (zero or more, paper notation)
//     grid clusters <n>...           (all three axes or none)
//     grid cluster_regs <n>...
//     grid shared_regs <n>...        (0 = no shared bank: pure clustered)
//     fus <n>            mem_ports <n>
//     characterize <0|1> budget <x>  max_ii <n>  iterative <0|1>
//     policy <name>
//     end
// Reports are deterministic: no timings or cache-hit flags, so a cold and
// a warm run of the same spec emit byte-identical CSV/markdown (the sweep
// acceptance criterion).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/mirs.h"
#include "machine/machine_config.h"
#include "service/batch.h"

namespace hcrf::service {

/// A parsed sweep specification (the grid, not its expansion).
struct SweepSpec {
  std::string name;                 ///< Report title; defaults to "sweep".
  std::vector<std::string> suites;  ///< Shared suites ("kernels", "synth").
  std::vector<std::string> graphs;  ///< Loop files, relative to the spec.
  std::vector<std::string> rfs;     ///< Explicit organizations.
  // Generative axes: the cross product clusters x cluster_regs x
  // shared_regs appended after the explicit `rfs` (ports from the paper's
  // design rule, RFConfig::DefaultLp/DefaultSp). Either all three axes are
  // present or none.
  std::vector<int> grid_clusters;
  std::vector<int> grid_cluster_regs;
  std::vector<int> grid_shared_regs;
  std::optional<int> num_fus;        ///< Baseline resources when unset.
  std::optional<int> num_mem_ports;
  bool characterize = true;  ///< Run organizations through the hw model.
  std::optional<double> budget_ratio;
  std::optional<int> max_ii;
  std::optional<bool> iterative;
  std::optional<core::ClusterPolicy> policy;
};

/// Parses / canonically dumps a sweep spec. Dump(Parse(Dump(s))) ==
/// Dump(s); the checked-in corpus/sweeps/ files are canonical.
SweepSpec ParseSweepSpec(std::string_view text,
                         std::string_view filename = "<hcl>");
std::string DumpSweepSpec(const SweepSpec& spec);
SweepSpec LoadSweepSpecFile(const std::string& path);

/// One expanded RF organization of the grid, ready to schedule on.
struct SweepMachine {
  std::string org;  ///< Canonical organization name (RFConfig::Name).
  MachineConfig machine;
};

/// The expanded organization axis: explicit `rf` entries first, then the
/// grid cross product (clusters-major), deduplicated by RF equality.
/// Combinations the machine model rejects (uneven resource split, more
/// pure clusters than memory ports, ...) are skipped, not errors — a
/// grid naturally sweeps past validity edges — and recorded as
/// "<org>: <reason>" so no part of the grid is dropped silently.
struct SweepPlan {
  std::vector<SweepMachine> machines;
  std::vector<std::string> skipped;
};
SweepPlan ExpandSweepMachines(const SweepSpec& spec);

/// One (organization, loop) cell of the sweep matrix — the deterministic
/// subset of a ScheduleResult the reports are built from.
struct SweepCell {
  std::string org;
  std::string loop;
  bool ok = false;
  bool cache_hit = false;  ///< Run metadata; never emitted in reports.
  std::string error;
  int ii = 0;
  int mii = 0;
  int sc = 0;
  core::BoundClass bound = core::BoundClass::kFU;
  int comm_ops = 0;
  int spill_ops = 0;  ///< Spill loads + stores (memory traffic added).
};

struct SweepReport {
  std::string name;
  std::vector<std::string> orgs;    ///< Expansion order.
  std::vector<std::string> loops;   ///< Workload order.
  std::vector<std::string> skipped; ///< Invalid grid combinations.
  std::vector<SweepCell> cells;     ///< Organization-major, loop-minor.
  TierStats cache;                  ///< Zeroes when caching is disabled.
  int scheduled = 0;
  int hits = 0;
  int failed = 0;
  double seconds = 0.0;
};

class SchedulerService;
struct ServiceConfig;

/// Expands `spec` (graph paths resolved against `base_dir`, the spec
/// file's directory) and schedules every (organization, loop) pair
/// through the batch scheduler. Throws on an unloadable workload or an
/// empty expansion; per-cell scheduling failures surface as failed cells.
/// The session form schedules through an existing resident session (its
/// cache stack and parallelism config; report.cache is the per-call
/// delta); the config form wraps a transient, drained session.
SweepReport RunSweep(const SweepSpec& spec, const std::string& base_dir,
                     SchedulerService& session);
SweepReport RunSweep(const SweepSpec& spec, const std::string& base_dir,
                     const ServiceConfig& config);

/// Deterministic report renderings (identical for cold and warm runs).
/// CSV: one row per cell — org,loop,status,ii,mii,sc,bound,comm_ops,
/// spill_ops. Markdown: per-organization aggregate table, the II matrix
/// (loops x organizations) and the skipped-combination list.
std::string SweepCsv(const SweepReport& report);
std::string SweepMarkdown(const SweepReport& report);

}  // namespace hcrf::service
