// Engine A/B/C bench: times the scheduling hot path in reference mode
// (full ComputePressure per spill check, linear priority scan), incremental
// mode (pressure tracker + indexed priority pick, MirsOptions::incremental)
// and speculative mode (incremental + II racing on the WorkerPool,
// MirsOptions::speculate_k), asserts all modes produce bit-identical
// schedules on every loop, and reports speedups, per-loop latency tails and
// speculation telemetry.
//
// This is the measured perf trajectory behind the checked-in BENCH_*.json
// files: `hcrf_sched bench` writes one per PR, and CI runs `bench --smoke`
// so a schedule-identity regression (the incremental or speculative path
// drifting from the reference semantics) fails the build.
//
// Methodology notes:
//  * Per-(suite, organization) cases, fixed repetition counts; wall time
//    covers MirsHC only (suite construction, MII bounds and serialization
//    are outside the timed region). The reference and incremental legs are
//    single-threaded; the speculative leg uses the process WorkerPool.
//  * Each loop's MII is precomputed once and handed to every mode via
//    MirsOptions::precomputed_mii, so the comparison isolates the engine.
//  * Latency quantiles are nearest-rank over the per-loop mean wall time
//    (seconds, averaged across the case's repetitions) — the per-loop tail
//    is what II racing attacks, and what suite totals hide.
//  * The identity check compares canonical result dumps (io::DumpResult)
//    of the modes pairwise, i.e. II, every placement, the transformed
//    graph and the stats block all have to match bit for bit.
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
  /// Candidate IIs per speculative wave (MirsOptions::speculate_k) for the
  /// speculative leg; values < 2 skip that leg entirely.
  int speculate_k = 4;
  /// Race the first wave too (MirsOptions::speculate_eager).
  bool speculate_eager = false;
  /// Smoke mode: shrink the unset knobs to CI cost — the identity
  /// assertions (incremental AND speculative vs reference) are unchanged.
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
  bool identical = true;   ///< Incremental and speculative dumps == reference.
  double reference_seconds = 0;
  double incremental_seconds = 0;
  double speculative_seconds = 0;  ///< 0 when the speculative leg is off.
  long placements = 0;  ///< Engine attempts over the incremental reps.
  long ejections = 0;   ///< Force-and-eject victims over the same reps.

  /// Per-loop latency tails (mean seconds per loop across reps).
  LatencyQuantiles serial_latency;       ///< Incremental serial mode.
  LatencyQuantiles speculative_latency;  ///< Speculative mode.

  // Speculation telemetry summed over one pass of the suite. The raced /
  // wins counts are deterministic; the cancelled vs losses split depends
  // on attempt timing.
  int spec_raced = 0;      ///< Attempts raced beyond the serial walk.
  int spec_wins = 0;       ///< Races won by a raced (non-primary) attempt.
  int spec_losses = 0;     ///< Raced attempts that finished above the winner.
  int spec_cancelled = 0;  ///< Raced attempts cancelled by a lower success.
  double spec_attempt_seconds = 0;  ///< Serial-equivalent attempt time.

  double Speedup() const {
    return incremental_seconds > 0 ? reference_seconds / incremental_seconds
                                   : 0.0;
  }
  /// Tail-latency gain of speculation: serial p95 over speculative p95.
  double SpecP95Speedup() const {
    return speculative_latency.p95 > 0
               ? serial_latency.p95 / speculative_latency.p95
               : 0.0;
  }
  /// Concurrent attempt-time per wall-second of the speculative leg
  /// (1.0 = no overlap; > 1 = racing actually ran in parallel).
  double EffectiveParallelism() const {
    return speculative_seconds > 0 ? spec_attempt_seconds / speculative_seconds
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

/// Host/build metadata stamped into the bench JSON header. Without it the
/// checked-in numbers are not interpretable — a single-core host degrades
/// the speculative leg to inline racing (BENCH_PR6.json's numbers needed a
/// commit-message footnote to explain exactly that).
struct HostInfo {
  unsigned hardware_concurrency = 0;
  /// Workers of the process WorkerPool (the key keeps its historical
  /// name so `--baseline` reads the checked-in reports).
  int speculation_pool_workers = 0;
  std::string build_type;  ///< "release" (NDEBUG) or "debug".
  /// True when the worker pool has no workers (single-core host):
  /// the speculative leg degrades to inline racing and its numbers are
  /// not comparable to a multi-core run. Stamped into the JSON so
  /// baseline comparison can skip the incomparable legs.
  bool degraded = false;
};

/// Returns the running process's HostInfo (pools lazily started).
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
  double speculative_seconds = 0;
  long placements = 0;
  long ejections = 0;
  bool identical = true;  ///< All cases bit-identical across modes.
  int speculate_k = 0;
  bool speculate_eager = false;
  int speculation_pool_workers = 0;
  HostInfo host;
  ServiceLeg service;
  MiiCacheStats mii_cache;
  BaselineComparison pre_pr;

  double Speedup() const {
    return incremental_seconds > 0 ? reference_seconds / incremental_seconds
                                   : 0.0;
  }
  double SpecSpeedup() const {
    return speculative_seconds > 0 ? incremental_seconds / speculative_seconds
                                   : 0.0;
  }
};

/// Runs the A/B/C bench. Deterministic apart from wall times and the
/// cancelled-vs-losses telemetry split.
BenchReport RunBench(const BenchOptions& opt = {});

/// Serializes the report as deterministic, human-diffable JSON (the
/// BENCH_*.json format, "hcrf-bench-4"; see README.md).
std::string BenchJson(const BenchReport& report);

/// One (suite, rf) leg's verdict from a baseline comparison.
struct BaselineCaseCheck {
  std::string suite;
  std::string rf;
  std::string metric;  ///< "serial_p95" or "speculative_p95".
  double baseline = 0;  ///< Baseline p95 seconds.
  double current = 0;   ///< This report's p95 seconds.
  bool skipped = false;  ///< Incomparable (e.g. degraded speculation leg).
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
  int skipped = 0;
  int regressions = 0;
};

/// Compares `current` against a checked-in BENCH_*.json (the deterministic
/// output of BenchJson — this is a targeted scanner, not a JSON library,
/// and relies on that shape). Per (suite, rf) present in both reports it
/// checks the serial p95 and, when BOTH hosts ran with worker pool
/// workers, the speculative p95; a leg is a regression when current p95 >
/// baseline p95 * (1 + tolerance). Legs whose host block makes them
/// incomparable (speculation_pool_workers == 0 on either side) are counted
/// as skipped, never as regressions.
BaselineCheck CompareAgainstBaseline(const BenchReport& current,
                                     const std::string& baseline_json,
                                     double tolerance = 0.15);

}  // namespace hcrf::perf
