// Batch scheduling front-end: scheduling as a service over .hcl files.
//
// A manifest (`hcl 1 manifest`) lists scheduling requests — a dependence
// graph file plus the machine configuration and options to schedule it
// under. The batch scheduler loads the requests, runs them through a
// SchedulerService (service/session.h), which fans them out on the
// process worker pool and backs them with its cache tiers, so repeated
// sweeps over a corpus skip scheduling entirely.
//
// Manifest grammar (one request per line, `#` comments allowed):
//     hcl 1 manifest
//     request graph <path> [rf <name>] [machine <path>] [characterize 0|1]
//             [budget <x>] [max_ii <n>] [iterative 0|1] [policy <name>]
//     end
// `graph` paths (and `machine` paths) are resolved relative to the
// manifest's directory. `rf` names a paper-notation RF organization that
// is applied to baseline resources and, unless `characterize 0`, run
// through the hardware model (hw::ApplyCharacterization) exactly as the
// benches do; `machine` loads a full `hcl 1 machine` document instead and
// is mutually exclusive with `rf`/`characterize`.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mirs.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "service/cache_tier.h"
#include "workload/workload.h"

namespace hcrf::service {

/// One parsed manifest line (before graph/machine files are loaded).
struct ManifestEntry {
  std::string graph;    ///< As written in the manifest.
  std::string machine;  ///< Machine-document path; empty = use `rf`.
  std::string rf = "S128";
  bool characterize = true;
  /// Whether rf/characterize appeared explicitly (the parser rejects
  /// combining either with `machine`, even at their default values).
  bool rf_set = false;
  bool characterize_set = false;
  std::optional<double> budget_ratio;
  std::optional<int> max_ii;
  std::optional<bool> iterative;
  std::optional<core::ClusterPolicy> policy;
  int line = 0;  ///< Manifest line, for error reporting.
};

/// Parses a manifest document. Throws io::HclError with line numbers.
std::vector<ManifestEntry> ParseManifest(std::string_view text,
                                         std::string_view filename);
std::vector<ManifestEntry> LoadManifestFile(const std::string& path);

/// A fully-resolved scheduling request. The loop is shared, not owned: a
/// design-space sweep schedules the same loop under every organization of
/// its grid, and per-request copies of whole dependence graphs would
/// scale as organizations x loops.
struct BatchRequest {
  std::string id;  ///< Label for reports (graph name or file stem).
  std::shared_ptr<const workload::Loop> loop;
  MachineConfig machine;
  core::MirsOptions options;
  /// Per-load producer-latency overrides (binding prefetching, see
  /// memsim::ClassifyBindingPrefetch) on the ids of `loop`. Part of the
  /// cache key: a prefetch run must never share an entry with a
  /// base-latency run of the same loop.
  sched::LatencyOverrides overrides;
  /// Warm-start policy: on an exact cache miss, probe the cache's
  /// near-key index (same loop + machine, differing options/overrides) and
  /// seed the engine with the closest entry. Set by `delta` submissions;
  /// warm-started results stay out of the exact-key cache (the cache
  /// contract serves cold bytes only), so the flag never changes what
  /// later exact hits return.
  bool allow_warm_start = false;
};

/// Wall-clock decomposition of one request's trip through the service: its
/// timed phases' slots (obs::Phase) plus the queue wait. Phases that did not
/// run stay zero (mii/schedule/cache-put on a hit; cache-probe/cache-put
/// when caching is disabled).
struct RequestTiming {
  double queue_seconds = 0;  ///< Batch start until a worker picked it up.
  double cache_probe_seconds = 0;  ///< Cache key + persistent-cache Get.
  double mii_seconds = 0;       ///< MII bound (sweep-cache probe/compute).
  double schedule_seconds = 0;  ///< The MirsHC run itself.
  double cache_put_seconds = 0;  ///< cache->Put + near-index update.

  double Total() const {
    return queue_seconds + cache_probe_seconds + mii_seconds +
           schedule_seconds + cache_put_seconds;
  }
  void Accumulate(const RequestTiming& d) {
    queue_seconds += d.queue_seconds;
    cache_probe_seconds += d.cache_probe_seconds;
    mii_seconds += d.mii_seconds;
    schedule_seconds += d.schedule_seconds;
    cache_put_seconds += d.cache_put_seconds;
  }
};

struct BatchItem {
  std::string id;
  bool ok = false;
  bool cache_hit = false;
  std::string error;  ///< Load/schedule failure; empty on success.
  core::ScheduleResult result;
  double seconds = 0.0;   ///< Wall time spent on this request.
  RequestTiming timing;   ///< Phase decomposition of `seconds` (+ queue).
};

struct BatchReport {
  /// In request order; empty when the batch ran with an item consumer,
  /// which took each item on its lane (SchedulerService::RunBatch).
  std::vector<BatchItem> items;
  /// Whole-stack cache counters for this batch (hits from any tier;
  /// misses/writes at the durable boundary). Zeroes when caching is
  /// disabled.
  TierStats cache;
  /// Memory-tier counters for this batch; zeroes without `--cache-mem`.
  /// entries/bytes are the residency at batch end, not a delta.
  TierStats mem_cache;
  int scheduled = 0;             ///< Fresh MirsHC runs.
  int hits = 0;                  ///< Requests served from the cache.
  int warm_starts = 0;           ///< Fresh runs seeded via near-key lookup.
  int failed = 0;
  double seconds = 0.0;   ///< Wall time of the whole batch.
  RequestTiming timing;   ///< Summed per-request phase timings.
};

/// Resolves one manifest entry into a dispatchable request: loads the
/// graph (and machine document, if named) relative to `base_dir`, applies
/// the RF organization + the paper-table hardware characterization
/// otherwise, and folds the per-entry option overrides in. Throws on
/// unloadable files.
BatchRequest ResolveManifestEntry(const ManifestEntry& entry,
                                  const std::string& base_dir);

struct ServiceConfig;

/// Schedules every request (in parallel, cache-backed) on a transient
/// single-batch session built from `config` (see service/session.h for
/// the resident form). Never throws for per-request failures; they
/// surface as failed items.
BatchReport RunBatch(const std::vector<BatchRequest>& requests,
                     const ServiceConfig& config);

/// Loads `manifest_path`, resolves its requests and runs them. Entries
/// whose graph/machine files fail to load become failed items (the rest
/// of the batch still runs); a malformed manifest itself throws.
BatchReport RunManifest(const std::string& manifest_path,
                        const ServiceConfig& config);

}  // namespace hcrf::service
