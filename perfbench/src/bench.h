// Shared pieces of the benchmark program: arguments, the printed report,
// workload inputs (paper organizations, seeded loop pools) and the
// correctness checks every workload applies to what the library returns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mirs.h"
#include "machine/machine_config.h"
#include "service/batch.h"
#include "stats.h"
#include "workload/workload.h"

namespace hcrf::service {
class Server;
}

namespace perfbench {

using hcrf::MachineConfig;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What a workload run produces: outcome counts, correctness, and the
/// metrics of the final JSON line (end-to-end untraced, per-layer traced).
struct RunResult {
  Tally tally;
  bool correct = true;
  std::vector<std::string> check_errors;  ///< First few, for stderr.
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
};

/// One human-readable report line: "  name = value unit  [note]".
void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

/// Seconds since `t0` on the steady clock.
double SecondsSince(double t0_seconds);
double NowSeconds();

/// Peak resident set of this process, MiB (getrusage max RSS).
double PeakRssMb();

/// The organizations of the paper's evaluation (Section 6): monolithic,
/// clustered, hierarchical and hierarchical clustered register files.
const std::vector<std::string>& PaperOrganizations();

/// Applies the paper-calibrated hardware model to one organization, as
/// the experiment registry and `rf` manifest entries do.
MachineConfig CharacterizedMachine(const std::string& rf_name);

/// The checked-in corpus loops (corpus/kernels, corpus/synth), sorted by
/// file name. Paths are relative to the repository root.
std::vector<std::shared_ptr<const hcrf::workload::Loop>> LoadCorpus();

/// Whether a `delta` what-if may target loop `g` on organization `org`:
/// the loop has a load, and the cell is not the one where the warm-start
/// path is known to commit a higher II than a cold schedule of the same
/// perturbation (corpus synth-stream-13 on 4C16S64: warm II 39 against
/// cold II 29-35 for 9 of its single-load hardenings). Every other corpus
/// cell keeps warm II <= cold II for every single-load hardening.
/// Generated loops are never targeted: a warm start on some of them trips
/// an engine invariant (AddEdge touching a dead node) and aborts.
bool DeltaEligible(const hcrf::DDG& g, const std::string& org);

/// A `delta` what-if: one load of a loop hardened to a latency between
/// its hit and miss latency.
struct Hardening {
  int node = 0;
  int latency = 0;
};

/// Draws a hardening of `base` (a DeltaEligible loop) from `rng`.
Hardening DrawHardening(const hcrf::service::BatchRequest& base, Stream& rng);

/// `base` with the hardening as its latency overrides, marked for a warm
/// start (as the daemon marks `delta` submissions).
hcrf::service::BatchRequest Hardened(hcrf::service::BatchRequest base,
                                     const Hardening& h);

/// One loop x organization cell of a seeded pool.
struct PoolEntry {
  std::shared_ptr<const hcrf::workload::Loop> loop;
  int org = 0;  ///< Index into the machines vector.
};

/// Builds requests for pool entries.
std::vector<hcrf::service::BatchRequest> MakeRequests(
    const std::vector<PoolEntry>& entries,
    const std::vector<MachineConfig>& machines);

/// Runs `requests` through a cache-less session and returns the digest of
/// each result's canonical dump (the byte-identity reference).
std::vector<std::uint64_t> ReferenceDigests(
    const std::vector<hcrf::service::BatchRequest>& requests,
    std::vector<hcrf::core::ScheduleResult>* results = nullptr);

std::uint64_t DumpDigest(const hcrf::core::ScheduleResult& result);

/// Validates a returned schedule against its own loop and machine.
/// Returns an empty string when valid.
std::string ValidateResult(const hcrf::core::ScheduleResult& result,
                           const MachineConfig& machine);

/// Σ achieved II / Σ MII over the successful results.
double IiOverMii(const std::vector<hcrf::core::ScheduleResult>& results);

/// Prints the host header: nproc, build type, load average, a host id,
/// the seed and the request-stream digest.
void PrintHostHeader(const Args& args, const std::string& stream_digest);

std::string Hex(std::uint64_t v);

/// This run's scratch directory (daemon socket, cache tiers), under the
/// build directory so a run writes only inside its checkout.
std::string ScratchDir();

// ---- traced runs (layers.cpp) --------------------------------------------

/// Set-up call timings every workload records (PerfectSynthetic and
/// ApplyCharacterization).
struct LayerTimes {
  std::vector<double> synth_gen_s;
  std::vector<double> characterize_us;
};

/// Process-wide library counters (obs registry, MII sweep cache) at one
/// instant; per-layer counts are deltas between two snapshots.
struct LayerSnapshot {
  std::map<std::string, long> counters;
  long mii_hits = 0;
  long mii_misses = 0;
  long mii_evictions = 0;
  static LayerSnapshot Take();
};

/// Inputs of the layer walk that follows a workload's traced pass.
struct LayerContext {
  std::string workload;
  std::uint64_t seed = 0;
  std::string scratch;  ///< Directory for the walk's own tiers and socket.
  /// The workload's daemon; null makes the walk start a small one.
  hcrf::service::Server* server = nullptr;
  std::string socket;
  /// Seeded sample of the workload's own requests.
  std::vector<hcrf::service::BatchRequest> sample;
  /// Resident-style requests the walk perturbs into `delta` what-ifs
  /// (DeltaEligible cells only).
  std::vector<hcrf::service::BatchRequest> delta_sample;
  LayerTimes times;
  LayerSnapshot before;  ///< Taken when the traced pass started.
  double trace_overhead = 0;
  /// Supplied by repro-cold from its traced RunExperiments; negative makes
  /// the walk measure them on a smoke-slice RunExperiments instead.
  double post_batch_s = -1;
  double parallel_efficiency = -1;
};

/// Times each layer's public calls over ctx.sample inside spans, writes the
/// Chrome trace and self-time table, and sets every per-layer metric.
void RunLayerWalk(const LayerContext& ctx, RunResult* out);

// ---- workloads -----------------------------------------------------------
RunResult RunReproCold(const Args& args);
RunResult RunServeHot(const Args& args);
RunResult RunServeContended(const Args& args);

/// Self-tests of the benchmark's own arithmetic; returns failures.
int RunSelfTests();

}  // namespace perfbench
