// Minimum initiation interval computation: ResMII (resource bound) and
// RecMII (recurrence bound), plus recurrence/SCC utilities used by the
// scheduler's priority ordering and the bound classification of loops.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ddg/ddg.h"
#include "machine/machine_config.h"

namespace hcrf {

/// Resource-constrained MII over the whole machine (cluster-agnostic; the
/// scheduler discovers the per-cluster constraints dynamically).
/// Unpipelined operations occupy their FU for their full latency.
int ResMII(const DDG& g, const MachineConfig& m);

/// Strongly connected components in one flat table: component k is
/// nodes[offsets[k] .. offsets[k+1]).
struct SccList {
  std::vector<NodeId> nodes;
  std::vector<std::size_t> offsets;

  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const NodeId> operator[](std::size_t k) const {
    return {nodes.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// Buffers of the SCC and recurrence computations, reusable across calls
/// and graphs: the scheduler runs them for every loop it schedules, and
/// with a warm scratch they allocate nothing.
struct GraphScratch {
  SccList sccs;
  // Tarjan.
  struct Frame {
    NodeId v;
    EdgeView::iterator next;  ///< v's next out-edge to visit.
  };
  std::vector<int> index;
  std::vector<int> low;
  std::vector<char> on_stack;
  std::vector<NodeId> stack;
  std::vector<Frame> call;
  // Bellman-Ford of the recurrence bound.
  std::vector<long> dist;
  std::vector<char> member;
};

/// SCCs(g) into `ws.sccs`, same components in the same order.
void SCCs(const DDG& g, GraphScratch& ws);
/// True for a component that is a recurrence: more than one node, or a
/// node with a self loop.
bool IsRecurrence(const DDG& g, std::span<const NodeId> scc);

/// Recurrence-constrained MII: the maximum over all dependence cycles of
/// ceil(sum latency / sum distance). Computed by binary search on II with a
/// positive-cycle (Bellman-Ford) feasibility test on edge weights
/// latency(e) - II * distance(e).
int RecMII(const DDG& g, const LatencyTable& lat);
int RecMII(const DDG& g, const LatencyTable& lat, GraphScratch& ws);

MIIInfo ComputeMII(const DDG& g, const MachineConfig& m);
MIIInfo ComputeMII(const DDG& g, const MachineConfig& m, GraphScratch& ws);

/// Strongly connected components (Tarjan). Components are returned in
/// reverse topological order; single nodes without self loops form trivial
/// components.
std::vector<std::vector<NodeId>> SCCs(const DDG& g);

/// Ids of nodes that belong to some dependence cycle (non-trivial SCC or
/// self loop). These are the "recurrence nodes" that HRMS prioritizes and
/// that selective binding prefetching schedules with hit latency.
std::vector<bool> NodesOnRecurrences(const DDG& g);

/// RecMII restricted to one SCC (used to order recurrences by criticality).
int SccRecMII(const DDG& g, const LatencyTable& lat,
              std::span<const NodeId> scc, GraphScratch& ws);

}  // namespace hcrf
