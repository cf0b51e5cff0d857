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
// bottom-up sweeps. One sweep routine serves both directions: top-down
// follows successors and pops the greatest height first, bottom-up follows
// predecessors and pops the greatest depth first, the lowest id on a tie.
// The ready list holds each node at most once, so parallel or dense edges
// cost one visit per edge, not one queued entry per edge.
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
  /// Longest path (sum of latencies over distance-0 edges) from the
  /// sources to each node, and from each node to the sinks.
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
  /// The sweep's ready list; `queued` marks its members, so it holds each
  /// node at most once.
  std::vector<NodeId> ready;
  std::vector<char> queued;
};

/// HrmsOrder(g, lat) into `order`, reusing `ws`.
void HrmsOrder(const DDG& g, const LatencyTable& lat, OrderingScratch& ws,
               std::vector<NodeId>& order);

}  // namespace hcrf::sched
