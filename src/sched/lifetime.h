// Register-pressure analysis of a (partial) modulo schedule.
//
// A value defined by node u is live from its issue cycle (the destination
// register is reserved when the operation issues -- there is no renaming
// in a VLIW) until its last scheduled read (max over flow consumers v of
// cycle(v) + distance * II). MaxLive of a bank is the maximum number of
// simultaneously live values mapped to it over one kernel iteration,
// counting the extra copies required by lifetimes longer than II.
//
// Loop invariants pin one register in every cluster bank from which they
// are read directly, plus one in the shared bank of hierarchical and
// monolithic organizations (the master copy; paper Section 5.1).
#pragma once

#include <vector>

#include "core/check.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/banks.h"
#include "sched/schedule.h"

namespace hcrf::sched {

/// Lifetime of one value in one bank, used for spill-candidate ranking.
struct ValueLifetime {
  NodeId def = kNoNode;
  BankId bank = kSharedBank;
  int start = 0;  ///< Issue cycle of the producer.
  int end = 0;    ///< Last read cycle (>= start); empty when end == start.
  int uses = 0;   ///< Scheduled flow consumers.
  /// Registers this lifetime occupies at its widest kernel row.
  int Length() const { return end - start; }
};

struct PressureReport {
  /// MaxLive per cluster bank (size = number of clusters; empty for
  /// monolithic organizations).
  std::vector<int> cluster_maxlive;
  /// MaxLive of the shared bank (0 if the organization has none).
  int shared_maxlive = 0;
  /// All value lifetimes with a scheduled producer.
  std::vector<ValueLifetime> values;

  int MaxLiveOf(BankId bank) const {
    if (bank == kSharedBank) return shared_maxlive;
    // Monolithic organizations have no cluster banks (cluster_maxlive is
    // empty); an unchecked index here was out-of-bounds UB.
    HCRF_CHECK(bank >= 0 &&
                   static_cast<size_t>(bank) < cluster_maxlive.size(),
               "MaxLiveOf(%d): organization has %zu cluster bank(s)", bank,
               cluster_maxlive.size());
    return cluster_maxlive[static_cast<size_t>(bank)];
  }
};

/// Per-load override of the flow latency used when the scheduler applies
/// binding prefetching (loads scheduled with miss latency). Empty = none.
struct LatencyOverrides {
  /// For node ids < size(): if >0, the producer latency to use for flow
  /// edges out of that node.
  std::vector<int> producer_latency;

  int For(NodeId n, int fallback) const {
    if (static_cast<size_t>(n) < producer_latency.size() &&
        producer_latency[static_cast<size_t>(n)] > 0) {
      return producer_latency[static_cast<size_t>(n)];
    }
    return fallback;
  }
};

/// Latency of the value produced by `src` as seen by consumers.
inline int ProducerLatency(const DDG& g, NodeId src, const LatencyTable& lat,
                           const LatencyOverrides& overrides) {
  return overrides.For(src, lat.Of(g.node(src).op));
}

/// Dependence latency of edge `e` (flow edges honour overrides).
inline int DependenceLatency(const DDG& g, const Edge& e,
                             const LatencyTable& lat,
                             const LatencyOverrides& overrides) {
  if (e.kind == DepKind::kFlow) {
    return ProducerLatency(g, e.src, lat, overrides);
  }
  return g.EdgeLatency(e, lat);
}

/// Computes bank pressure for the scheduled subset of `g`.
PressureReport ComputePressure(const DDG& g, const PartialSchedule& sched,
                               const MachineConfig& m,
                               const LatencyOverrides& overrides = {});

/// Per-row tallies of ComputePressure, reusable across calls.
struct PressureScratch {
  std::vector<long> rows;     ///< [bank index * II + row]
  std::vector<char> used;     ///< [invariant * banks + bank index]
  std::vector<char> any_use;  ///< [invariant]
};

/// ComputePressure into `out`, reusing `scratch` and `out`'s buffers (no
/// allocation once they have grown to the graph and II).
void ComputePressure(const DDG& g, const PartialSchedule& sched,
                     const MachineConfig& m, const LatencyOverrides& overrides,
                     PressureScratch& scratch, PressureReport& out);

}  // namespace hcrf::sched
