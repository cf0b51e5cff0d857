// Steady-state replay of a scheduled loop's memory accesses through the
// lockup-free cache: the stall-cycle side of the paper's real-memory
// evaluation (Figure 6).
//
// Model: an in-order VLIW core issues the kernel every II cycles. A load
// scheduled with hit latency that misses stalls the core for the remaining
// miss latency, minus any overlap already bought by earlier outstanding
// misses (up to 8 MSHRs). Loads scheduled with miss latency (binding
// prefetching) never stall; stores allocate an MSHR but do not stall the
// core. When all MSHRs are busy the core stalls until one frees.
//
// The first invocation runs against a cold cache, later invocations
// against the warm state; we simulate one cold and one warm invocation and
// scale (the paper simulates the whole program; all Figure 6 numbers are
// relative, see DESIGN.md). The warm invocation usually rejoins the cold
// one: once its cache tags and outstanding misses equal the cold
// invocation's at the same iteration (compared at iterations 64, 128,
// 256, ...), its future is the cold one's, so it ends there and takes the
// cold invocation's remaining stalls and misses. The result is exact: it
// equals stepping every access.
//
// `cache_cfg` must meet the cache's power-of-two geometry contract
// (cache.h: line size and set count) and have at least one MSHR; both are
// HCRF_CHECKed. The result depends only on the schedule (graph, cycles,
// overrides), the machine's load latencies and `loop.trip` /
// `loop.invocations`, so callers may share one replay among cells that
// agree on all of them.
#pragma once

#include "core/mirs.h"
#include "memsim/cache.h"
#include "workload/workload.h"

namespace hcrf::memsim {

struct ReplayResult {
  long stall_cycles = 0;   ///< Total over all invocations.
  long useful_cycles = 0;  ///< II*(N + (SC-1)*E), the paper's estimate.
  long accesses = 0;       ///< Modelled accesses: cold plus one warm.
  long misses = 0;         ///< Misses among those.
  /// Accesses actually stepped through the cache: `accesses` less the
  /// warm invocation's tail after it rejoined the cold one.
  long simulated = 0;
};

/// Replays the memory accesses of `sr` (a successful schedule of `loop`)
/// and returns stall/useful cycle counts. `m` supplies the latency table
/// in effect for the configuration.
ReplayResult ReplayLoop(const workload::Loop& loop,
                        const core::ScheduleResult& sr,
                        const MachineConfig& m,
                        const CacheConfig& cache_cfg = {});

}  // namespace hcrf::memsim
