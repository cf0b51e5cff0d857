// Register-sensitive node ordering in the spirit of HRMS (Hypernode
// Reduction Modulo Scheduling, Llosa et al. MICRO-28) as used by MIRS and
// MIRS_HC: nodes are pre-ordered so that every node (except the first of an
// independent component) has an already-ordered predecessor or successor
// when it is scheduled, which keeps lifetimes short, and recurrences are
// ordered first, most critical (highest RecMII) first.
//
// We implement the Swing-Modulo-Scheduling formulation of this ordering
// (same research group, equivalent intent): recurrence sets sorted by
// RecMII descending, each set extended with the nodes on paths to the
// previously ordered sets, inner ordering by alternating top-down /
// bottom-up sweeps prioritized by depth/height.
#pragma once

#include <cstddef>
#include <vector>

#include "ddg/ddg.h"
#include "ddg/mii.h"
#include "machine/machine_config.h"

namespace hcrf::sched {

/// Node priorities: position in the returned vector is the scheduling
/// order (front = highest priority).
std::vector<NodeId> HrmsOrder(const DDG& g, const LatencyTable& lat);

/// Buffers of HrmsOrder, reusable across calls and graphs; with a warm
/// scratch the ordering allocates nothing.
struct OrderingScratch {
  GraphScratch graph;
  std::vector<long> depth;
  std::vector<long> height;
  std::vector<int> indeg;
  std::vector<NodeId> topo;
  struct RecSet {
    std::size_t scc;  ///< Component index in graph.sccs.
    int rec_mii;
  };
  std::vector<RecSet> rec_sets;
  /// The ordered node sets, flat: set k is set_nodes[set_offsets[k] ..
  /// set_offsets[k+1]).
  std::vector<NodeId> set_nodes;
  std::vector<std::size_t> set_offsets;
  std::vector<char> placed_in_set;
  std::vector<char> cur;
  std::vector<char> desc_prev, anc_prev, desc_cur, anc_cur;
  std::vector<NodeId> queue;
  std::vector<char> ordered;
  std::vector<char> member;
  std::vector<NodeId> ready;
};

/// HrmsOrder(g, lat) into `order`, reusing `ws`.
void HrmsOrder(const DDG& g, const LatencyTable& lat, OrderingScratch& ws,
               std::vector<NodeId>& order);

/// Longest path (sum of latencies over distance-0 edges) from sources to
/// each node ("depth") and to sinks ("height"); used by the ordering and
/// by the schedulers' start-cycle estimates.
struct DepthHeight {
  std::vector<long> depth;
  std::vector<long> height;
};
DepthHeight ComputeDepthHeight(const DDG& g, const LatencyTable& lat);

}  // namespace hcrf::sched
