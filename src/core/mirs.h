// MIRS_HC: Modulo scheduling with Integrated Register Spilling for
// Hierarchical Clustered VLIW architectures (the paper's Section 5), and
// its specializations for monolithic (MIRS [38]), clustered (MIRS for
// clustered RFs [37]) and hierarchical non-clustered RFs. One engine
// handles all four organization families, selected by MachineConfig::rf.
//
// The scheduler simultaneously performs:
//  * instruction scheduling (HRMS-style register-sensitive ordering),
//  * cluster selection (balancing slots, communication and registers),
//  * insertion of communication ops (Move for pure clustered organizations,
//    StoreR/LoadR for hierarchical ones) whenever a flow dependence crosses
//    banks,
//  * register allocation per bank (MaxLive vs capacity after every
//    placement),
//  * spill insertion: cluster bank -> shared bank (hierarchical; free of
//    memory traffic) and shared bank / cluster bank -> memory.
//
// It is iterative with backtracking: when no free slot exists the node is
// force-placed and the conflicting and dependence-violating nodes are
// ejected back into the priority list (their communication ops are removed
// and their original edges restored). The process is governed by a Budget
// of Budget_Ratio attempts per node; exhausting it restarts the schedule
// at II+1.
//
// This header is the stable entry point. The implementation is layered
// (see ARCHITECTURE.md): engine driver (engine.h), cluster selection
// (policies.h), communication rewriting (comm_rewrite.h), spilling
// (spill.h) and instrumentation (instrument.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/instrument.h"
#include "core/policies.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "sched/schedule.h"

namespace hcrf::core {

struct ScheduleResult;

struct MirsOptions {
  /// Attempts the iterative algorithm may spend per node (Budget_Ratio).
  double budget_ratio = 6.0;
  /// Hard II ceiling (fail the loop beyond it; generously above any MII in
  /// the workload).
  int max_ii = 2048;
  /// false selects the non-iterative baseline in the style of [36]: no
  /// force-and-eject backtracking, so a node with no free slot in its
  /// window fails the II attempt. Spill insertion runs in both modes,
  /// every 4 placements and when the priority list drains. Used as the
  /// Table 4 comparator.
  bool iterative = true;
  /// Cluster selection heuristic (policies.h): the paper's Section 5.1
  /// Select_Cluster or one of its two ablations. Ordering (HRMS) and the
  /// spill victim (longest lifetime per use) are fixed, so this enum,
  /// budget_ratio, max_ii and iterative are the whole schedule-relevant
  /// configuration: all four are in the schedule cache key and the `.hcl`
  /// options document. The other fields are runtime-only.
  ClusterPolicy cluster_policy = ClusterPolicy::kBalanced;

  /// Precomputed MII of the loop (the batch's MII sweep cache); when
  /// set, the engine skips its own ComputeMII. Must match the loop/machine.
  std::optional<MIIInfo> precomputed_mii;

  /// Warm-start seed: a prior result for the same original loop (typically
  /// the same graph under slightly different latencies / options, served by
  /// the tier stack's near-key lookup). The driver replays the compatible
  /// placements and lets the force-and-eject cascade repair the rest; an
  /// incompatible or failing seed falls back to the cold path (see
  /// ScheduleResult::warm — the fallback is counted, never silent). Like
  /// `precomputed_mii` this is runtime-only: outside serialization and the
  /// schedule cache key.
  std::shared_ptr<const ScheduleResult> warm_start;
};

/// How a loop's achieved II is bounded (Table 1's classification).
enum class BoundClass : std::uint8_t { kFU, kMemPort, kRecurrence, kComm };

std::string_view ToString(BoundClass b);

/// Telemetry of the warm-start path (all zero on a cold run). It is
/// deliberately NOT serialized into `.hcl` result dumps: a fallback result must stay bit-identical to a cold run,
/// and warm-started results never enter the exact-key cache anyway (the
/// cache contract serves only cold bytes).
struct WarmStartTelemetry {
  bool attempted = false;  ///< A usable seed was offered to the engine.
  bool used = false;      ///< The seeded attempt validated and was kept.
  bool fallback = false;  ///< Seed rejected / seeded attempt failed; the
                          ///< result below came from the cold path.
  int seeded = 0;    ///< Placements replayed verbatim from the seed.
  int repaired = 0;  ///< Placement attempts spent repairing conflicts
                     ///< (the cascade's work after seeding).
};

struct ScheduleResult {
  bool ok = false;
  int ii = 0;
  int sc = 0;  ///< Stage count of the final schedule.
  int mii = 0;
  int res_mii = 0;
  int rec_mii = 0;
  /// Transformed graph: original operations plus communication and spill
  /// nodes. Original node ids are preserved.
  DDG graph;
  sched::PartialSchedule schedule{1};
  /// Flow-latency overrides actually used (binding prefetching), indexed
  /// by ids of `graph`.
  sched::LatencyOverrides overrides;
  ScheduleStats stats;
  BoundClass bound = BoundClass::kFU;
  /// Loads+stores per iteration in the final graph: the paper's `trf`
  /// factor of the memory-traffic metric (N * trf).
  int mem_ops_per_iter = 0;
  WarmStartTelemetry warm;
};

/// Schedules one loop on the given machine. `load_overrides` (optional)
/// gives per-load producer latencies on the ids of `loop` — the mechanism
/// behind binding prefetching (schedule selected loads with miss latency).
ScheduleResult MirsHC(const DDG& loop, const MachineConfig& m,
                      const MirsOptions& opt = {},
                      const sched::LatencyOverrides& load_overrides = {});

}  // namespace hcrf::core
