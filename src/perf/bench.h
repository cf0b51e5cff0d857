// Engine A/B bench: times the scheduling hot path in reference mode (full
// ComputePressure per spill check, linear priority scan) and incremental
// mode (pressure tracker + indexed priority pick, MirsOptions::incremental),
// asserts both modes produce bit-identical schedules on every loop, and
// reports speedups and per-loop latency tails.
//
// This is the measured perf trajectory behind the checked-in BENCH_*.json
// files: `hcrf_sched bench` writes one per PR, and CI runs `bench --smoke`
// so a schedule-identity regression (the incremental path drifting from
// the reference semantics) fails the build.
//
// Methodology notes:
//  * Per-(suite, organization) cases, fixed repetition counts; wall time
//    covers MirsHC only (suite construction, MII bounds and serialization
//    are outside the timed region). Both legs are single-threaded.
//  * Each loop's MII is precomputed once and handed to both modes via
//    MirsOptions::precomputed_mii, so the comparison isolates the engine.
//  * Latency quantiles are nearest-rank over the per-loop mean wall time
//    (seconds, averaged across the case's repetitions) — the per-loop tail
//    is what suite totals hide.
//  * The identity check compares canonical result dumps (io::DumpResult)
//    of the two modes, i.e. II, every placement, the transformed graph and
//    the stats block all have to match bit for bit.
#pragma once

#include <string>
#include <vector>

#include "perf/runner.h"
#include "workload/workload.h"

namespace hcrf::perf {

struct BenchOptions {
  /// RF organizations to bench on (paper notation). Empty = the default
  /// set: hierarchical clustered (the paper's proposal), pure clustered,
  /// and monolithic with tight registers — one per engine family; smoke
  /// mode defaults to the first of those only. Explicit values always
  /// win, smoke or not.
  std::vector<std::string> rf_names;
  /// Repetitions of the kernel suite per timed mode (the suite is tiny,
  /// so one pass is below timer noise). 0 = default (60; 5 in smoke).
  int kernel_reps = 0;
  /// Synthetic-suite loops per case. 0 = default (the whole shared suite;
  /// a 64-loop slice in smoke).
  int synth_loops = 0;
  /// Repetitions of the synthetic suite per timed mode (0 = 1).
  int synth_reps = 0;
  /// Smoke mode: shrink the unset knobs to CI cost — the identity
  /// assertion (incremental vs reference) is unchanged.
  bool smoke = false;
};

/// Nearest-rank quantiles of per-loop scheduling latency (seconds).
struct LatencyQuantiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

struct BenchCase {
  std::string suite;  ///< "kernels" or "synth".
  std::string rf;     ///< Organization (paper notation).
  int loops = 0;
  int reps = 0;
  int failed = 0;          ///< Loops no mode can schedule (counted once).
  bool identical = true;   ///< Incremental dumps == reference.
  double reference_seconds = 0;
  double incremental_seconds = 0;
  long placements = 0;  ///< Engine attempts over the incremental reps.
  long ejections = 0;   ///< Force-and-eject victims over the same reps.

  /// Per-loop latency tail of the incremental mode (mean seconds per loop
  /// across reps).
  LatencyQuantiles serial_latency;

  double Speedup() const {
    return incremental_seconds > 0 ? reference_seconds / incremental_seconds
                                   : 0.0;
  }
};

/// Delta leg (warm-start re-scheduling): per (kernel corpus, organization),
/// schedule every loop cold to obtain a base result, perturb one producer
/// latency per loop (the first alive load, hardened toward its miss
/// latency), then schedule the perturbation cold vs warm-started from the
/// unperturbed base (MirsOptions::warm_start). Hardening perturbations
/// only shrink the feasible-II set, so the II-no-worse gate holds
/// analytically; `ii_never_worse` still records the measured check.
struct DeltaCase {
  std::string rf;     ///< Organization (paper notation).
  int loops = 0;      ///< Perturbed loops timed (alive-load loops only).
  int skipped = 0;    ///< Loops without an alive load (not timed).
  int reps = 0;
  int fallbacks = 0;  ///< Warm attempts that fell back to the cold path.
  double cold_seconds = 0;  ///< Perturbed loops, cold from MII.
  double warm_seconds = 0;  ///< Perturbed loops, seeded from the base.
  LatencyQuantiles cold_latency;  ///< Per-loop mean seconds across reps.
  LatencyQuantiles warm_latency;
  long rebuild_placements = 0;  ///< Engine attempts on the cold rebuilds.
  long repair_placements = 0;   ///< Engine attempts repairing the seeds.
  long seeded = 0;              ///< Placements replayed from the seeds.
  bool ii_never_worse = true;   ///< Warm II <= cold II on every loop.

  double P50Speedup() const {
    return warm_latency.p50 > 0 ? cold_latency.p50 / warm_latency.p50 : 0.0;
  }
  double P95Speedup() const {
    return warm_latency.p95 > 0 ? cold_latency.p95 / warm_latency.p95 : 0.0;
  }
};

/// One-off comparison against an *older binary* (the in-binary reference
/// mode only isolates the incremental engine; the rest of the PR's hot-path
/// work — allocation-free MRT, hoisted window scans, comm-GC candidate
/// lists, cached env flags — speeds both modes). Both numbers must come
/// from the same command run the same way; the note records the method.
struct BaselineComparison {
  bool present = false;
  double baseline_seconds = 0;  ///< Older binary, e.g. the pre-PR engine.
  double current_seconds = 0;   ///< This binary, same workload and method.
  std::string note;

  double Speedup() const {
    return current_seconds > 0 ? baseline_seconds / current_seconds : 0.0;
  }
};

/// Host/build metadata stamped into the bench JSON header: without it the
/// checked-in numbers are not interpretable.
struct HostInfo {
  unsigned hardware_concurrency = 0;
  std::string build_type;  ///< "release" (NDEBUG) or "debug".
};

/// Returns the running process's HostInfo.
HostInfo QueryHostInfo();

/// Summed per-request phase seconds of the service-timing leg. Mirror of
/// service::RequestTiming — the service layer sits above perf, so bench.h
/// cannot include it; tools/hcrf_sched runs the leg and copies the fields.
struct ServicePhaseSeconds {
  double queue = 0;
  double cache_probe = 0;
  double mii = 0;
  double schedule = 0;
  double serialize = 0;
};

/// Service-timing leg: the kernel corpus scheduled through service::RunBatch
/// against a fresh cache directory (cold), then again over the populated
/// cache (warm). Shows where a request's wall time goes on each path.
struct ServiceLeg {
  bool present = false;
  int requests = 0;   ///< Requests per pass.
  int warm_hits = 0;  ///< Cache hits observed in the warm pass.
  double cold_seconds = 0;  ///< Batch wall time, cold cache.
  double warm_seconds = 0;  ///< Batch wall time, warm cache.
  ServicePhaseSeconds cold;
  ServicePhaseSeconds warm;
};

struct BenchReport {
  std::vector<BenchCase> cases;
  std::vector<DeltaCase> delta;  ///< Warm-start delta leg, one per org.
  double reference_seconds = 0;
  double incremental_seconds = 0;
  long placements = 0;
  long ejections = 0;
  bool identical = true;  ///< All cases bit-identical across modes.
  HostInfo host;
  ServiceLeg service;
  MiiCacheStats mii_cache;
  BaselineComparison pre_pr;

  double Speedup() const {
    return incremental_seconds > 0 ? reference_seconds / incremental_seconds
                                   : 0.0;
  }
};

/// Runs the A/B bench. Deterministic apart from wall times.
BenchReport RunBench(const BenchOptions& opt = {});

/// Serializes the report as deterministic, human-diffable JSON (the
/// BENCH_*.json format, "hcrf-bench-5"; see README.md).
std::string BenchJson(const BenchReport& report);

/// One (suite, rf) leg's serial-p95 verdict from a baseline comparison.
struct BaselineCaseCheck {
  std::string suite;
  std::string rf;
  double baseline = 0;  ///< Baseline p95 seconds.
  double current = 0;   ///< This report's p95 seconds.
  bool regressed = false;  ///< current > baseline * (1 + tolerance).

  double Ratio() const { return baseline > 0 ? current / baseline : 0.0; }
};

/// Verdict of CompareAgainstBaseline: per-leg checks plus the rollup the
/// CLI turns into an exit code.
struct BaselineCheck {
  bool ok = false;  ///< Baseline parsed and at least one leg compared.
  std::string error;  ///< Set when the baseline JSON is unusable.
  std::vector<BaselineCaseCheck> checks;
  int compared = 0;
  int regressions = 0;
};

/// Compares `current` against a checked-in BENCH_*.json (the deterministic
/// output of BenchJson, format hcrf-bench-4 or -5 — this is a targeted
/// scanner, not a JSON library, and relies on that shape). Per (suite, rf)
/// present in both reports it checks the serial p95; a leg is a regression
/// when current p95 > baseline p95 * (1 + tolerance). Every other
/// per-case block of the baseline (hcrf-bench-4 carried more legs) is
/// ignored.
BaselineCheck CompareAgainstBaseline(const BenchReport& current,
                                     const std::string& baseline_json,
                                     double tolerance = 0.15);

}  // namespace hcrf::perf
