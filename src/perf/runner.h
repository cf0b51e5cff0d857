// Loop metrics and the MII sweep cache.
//
// Scheduling runs through service::SchedulerService::RunBatch; this
// module holds what surrounds it. MetricsFromResult derives a loop's
// paper metrics from a finished schedule. The MII sweep cache serves each
// loop's MII across the configurations of a design-space sweep: the bound
// depends only on the graph, the latency table and the global FU /
// memory-port counts, all shared across the RF organizations of one
// sweep, so the process-wide cache turns the per-configuration
// ComputeMII into a hash lookup.
#pragma once

#include "ddg/mii.h"
#include "perf/metrics.h"
#include "sched/lifetime.h"
#include "workload/workload.h"

namespace hcrf::perf {

/// Derives a loop's metrics from an already-computed schedule: the
/// Section 2.3 formulas (useful cycles, memory traffic, ops executed),
/// with ideal memory (0 stall cycles; a caller that models real memory,
/// Figure 6's scenario, sets them from memsim::ReplayLoop). A
/// cache-served result yields metrics bit-identical to a fresh one.
LoopMetrics MetricsFromResult(const workload::Loop& loop,
                              const core::ScheduleResult& result);

/// Counters of the process-wide MII sweep cache (observability for the
/// benches and the sweep service; hits mean a configuration skipped
/// ComputeMII). `entries` is the current resident count, `evictions` how
/// many entries the size cap pushed out.
struct MiiCacheStats {
  long hits = 0;
  long misses = 0;
  long entries = 0;
  long evictions = 0;
};
MiiCacheStats GetMiiCacheStats();

/// Entry cap of the MII sweep cache. The cache is process-wide and a
/// long-lived sweep service would otherwise grow it without bound; beyond
/// the cap the oldest entry is evicted (FIFO). Returns the previous cap.
/// The default (4096) comfortably holds every (suite x latency-table)
/// combination of the paper benches.
long SetMiiCacheCapacity(long max_entries);

/// Shared MII sweep-cache lookup: returns the memoized MII of (g, m,
/// overrides), computing and inserting it on a miss. The key covers the
/// graph structure, the global resource counts, the latency table and the
/// producer-latency overrides. ComputeMII itself currently reads only the
/// latency table, but the key must cover everything the value *may*
/// depend on: keying the overrides guarantees a binding-prefetch run can
/// never be cross-served a base-latency entry (or vice versa), and keeps
/// the cache sound if RecMII ever honours the overridden load latencies.
MIIInfo CachedMii(const DDG& g, const MachineConfig& m,
                  const sched::LatencyOverrides& overrides = {});

}  // namespace hcrf::perf
