#include "sched/ordering.h"

#include <algorithm>
#include <span>

#include "core/check.h"
#include "ddg/mii.h"

namespace hcrf::sched {

namespace {

// Longest distance-0 paths into ws.depth / ws.height.
void DepthHeightInto(const DDG& g, const LatencyTable& lat,
                     OrderingScratch& ws) {
  const size_t n = static_cast<size_t>(g.NumSlots());
  ws.depth.assign(n, 0);
  ws.height.assign(n, 0);

  // Topological order of the distance-0 subgraph (acyclic: the generators
  // never close a zero-distance cycle, and the strict loader rejects one).
  std::vector<int>& indeg = ws.indeg;
  indeg.assign(n, 0);
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    for (const Edge& e : g.OutEdges(v)) {
      if (e.distance == 0) ++indeg[static_cast<size_t>(e.dst)];
    }
  }
  std::vector<NodeId>& topo = ws.topo;
  topo.clear();
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (g.IsAlive(v) && indeg[static_cast<size_t>(v)] == 0) topo.push_back(v);
  }
  for (size_t i = 0; i < topo.size(); ++i) {
    const NodeId v = topo[i];
    for (const Edge& e : g.OutEdges(v)) {
      if (e.distance != 0) continue;
      const long cand = ws.depth[static_cast<size_t>(v)] + g.EdgeLatency(e, lat);
      ws.depth[static_cast<size_t>(e.dst)] =
          std::max(ws.depth[static_cast<size_t>(e.dst)], cand);
      if (--indeg[static_cast<size_t>(e.dst)] == 0) topo.push_back(e.dst);
    }
  }
  for (size_t i = topo.size(); i-- > 0;) {
    const NodeId v = topo[i];
    for (const Edge& e : g.OutEdges(v)) {
      if (e.distance != 0) continue;
      ws.height[static_cast<size_t>(v)] =
          std::max(ws.height[static_cast<size_t>(v)],
                   ws.height[static_cast<size_t>(e.dst)] + g.EdgeLatency(e, lat));
    }
  }
}

// A forward (top-down) walk follows out-edges to their destinations, a
// backward (bottom-up) one in-edges to their sources.
EdgeView Ahead(const DDG& g, NodeId v, bool forward) {
  return forward ? g.OutEdges(v) : g.InEdges(v);
}
NodeId Far(const Edge& e, bool forward) { return forward ? e.dst : e.src; }

// Reachability (over all edges, any distance) from `seeds` in the given
// direction, as a membership bitmap in `seen`.
void Reach(const DDG& g, const std::vector<char>& seeds, bool forward,
           std::vector<char>& seen, std::vector<NodeId>& queue) {
  seen.assign(seeds.begin(), seeds.end());
  queue.clear();
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (seeds[static_cast<size_t>(v)]) queue.push_back(v);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const Edge& e : Ahead(g, queue[head], forward)) {
      const NodeId w = Far(e, forward);
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
}

}  // namespace

std::vector<NodeId> HrmsOrder(const DDG& g, const LatencyTable& lat) {
  OrderingScratch ws;
  std::vector<NodeId> order;
  HrmsOrder(g, lat, ws, order);
  return order;
}

void HrmsOrder(const DDG& g, const LatencyTable& lat, OrderingScratch& ws,
               std::vector<NodeId>& order) {
  const size_t n = static_cast<size_t>(g.NumSlots());
  DepthHeightInto(g, lat, ws);
  const std::vector<long>& depth = ws.depth;
  const std::vector<long>& height = ws.height;

  // Recurrence sets by descending RecMII; equal bounds keep component
  // order.
  SCCs(g, ws.graph);
  const SccList& sccs = ws.graph.sccs;
  ws.rec_sets.clear();
  for (size_t k = 0; k < sccs.size(); ++k) {
    if (!IsRecurrence(g, sccs[k])) continue;
    ws.rec_sets.push_back({k, SccRecMII(g, lat, sccs[k], ws.graph)});
  }
  std::sort(ws.rec_sets.begin(), ws.rec_sets.end(),
            [](const OrderingScratch::RecSet& a,
               const OrderingScratch::RecSet& b) {
              if (a.rec_mii != b.rec_mii) return a.rec_mii > b.rec_mii;
              return a.scc < b.scc;
            });

  // Build the sequence of node sets: each recurrence set is augmented with
  // the nodes on paths between it and the union of the previous sets. That
  // union is exactly placed_in_set when a set starts.
  std::vector<char>& placed_in_set = ws.placed_in_set;
  placed_in_set.assign(n, 0);
  ws.set_nodes.clear();
  ws.set_offsets.assign(1, 0);
  std::vector<char>& cur = ws.cur;
  cur.assign(n, 0);
  for (const OrderingScratch::RecSet& rs : ws.rec_sets) {
    const std::span<const NodeId> rec_nodes = sccs[rs.scc];
    for (NodeId v : rec_nodes) cur[static_cast<size_t>(v)] = 1;
    if (ws.set_offsets.size() > 1) {
      // Path nodes: descendants of prev that are ancestors of cur, or
      // descendants of cur that are ancestors of prev.
      Reach(g, placed_in_set, /*forward=*/true, ws.desc_prev, ws.queue);
      Reach(g, placed_in_set, /*forward=*/false, ws.anc_prev, ws.queue);
      Reach(g, cur, /*forward=*/true, ws.desc_cur, ws.queue);
      Reach(g, cur, /*forward=*/false, ws.anc_cur, ws.queue);
      for (NodeId v = 0; v < g.NumSlots(); ++v) {
        const size_t i = static_cast<size_t>(v);
        if (!g.IsAlive(v) || placed_in_set[i] || cur[i]) continue;
        if ((ws.desc_prev[i] && ws.anc_cur[i]) ||
            (ws.desc_cur[i] && ws.anc_prev[i])) {
          ws.set_nodes.push_back(v);
          placed_in_set[i] = 1;
        }
      }
    }
    for (NodeId v : rec_nodes) {
      cur[static_cast<size_t>(v)] = 0;
      if (!placed_in_set[static_cast<size_t>(v)]) {
        ws.set_nodes.push_back(v);
        placed_in_set[static_cast<size_t>(v)] = 1;
      }
    }
    if (ws.set_nodes.size() > ws.set_offsets.back()) {
      ws.set_offsets.push_back(ws.set_nodes.size());
    }
  }
  // Remaining nodes form the final set.
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (g.IsAlive(v) && !placed_in_set[static_cast<size_t>(v)]) {
      ws.set_nodes.push_back(v);
    }
  }
  if (ws.set_nodes.size() > ws.set_offsets.back()) {
    ws.set_offsets.push_back(ws.set_nodes.size());
  }

  // Inner ordering: alternating top-down / bottom-up sweeps (SMS). Sets
  // are disjoint, so a node of the current set is ordered exactly when it
  // is done within this set.
  order.clear();
  std::vector<char>& ordered = ws.ordered;
  ordered.assign(n, 0);
  std::vector<char>& member = ws.member;
  member.assign(n, 0);
  std::vector<char>& queued = ws.queued;
  queued.assign(n, 0);
  std::vector<NodeId>& r = ws.ready;
  r.clear();
  auto push = [&](NodeId v) {
    if (!queued[static_cast<size_t>(v)]) {
      queued[static_cast<size_t>(v)] = 1;
      r.push_back(v);
    }
  };

  for (size_t k = 0; k + 1 < ws.set_offsets.size(); ++k) {
    const std::span<const NodeId> s(ws.set_nodes.data() + ws.set_offsets[k],
                                    ws.set_offsets[k + 1] - ws.set_offsets[k]);
    for (NodeId v : s) member[static_cast<size_t>(v)] = 1;
    size_t remaining = s.size();

    // A sweep starts from the unordered nodes one edge behind an ordered
    // node: the nodes feeding it bottom-up, the nodes it feeds top-down.
    auto append_next_to_ordered = [&](bool top_down) {
      for (NodeId v : s) {
        if (ordered[static_cast<size_t>(v)]) continue;
        for (const Edge& e : Ahead(g, v, !top_down)) {
          if (ordered[static_cast<size_t>(Far(e, !top_down))]) {
            push(v);
            break;
          }
        }
      }
    };
    // Pops the ready node with the greatest height (top-down) or depth
    // (bottom-up), the lowest id on a tie, and queues its unordered
    // successors (predecessors) in the set, until the list drains. Each
    // pop is the maximum of a total order over distinct nodes, so the
    // list's own order does not matter.
    auto sweep = [&](bool top_down) {
      const std::vector<long>& key = top_down ? height : depth;
      while (!r.empty()) {
        auto it = std::max_element(r.begin(), r.end(), [&](NodeId a, NodeId b) {
          if (key[static_cast<size_t>(a)] != key[static_cast<size_t>(b)]) {
            return key[static_cast<size_t>(a)] < key[static_cast<size_t>(b)];
          }
          return a > b;
        });
        const NodeId v = *it;
        *it = r.back();
        r.pop_back();
        queued[static_cast<size_t>(v)] = 0;
        ordered[static_cast<size_t>(v)] = 1;
        order.push_back(v);
        --remaining;
        for (const Edge& e : Ahead(g, v, top_down)) {
          const NodeId w = Far(e, top_down);
          if (member[static_cast<size_t>(w)] &&
              !ordered[static_cast<size_t>(w)]) {
            push(w);
          }
        }
      }
    };

    while (remaining > 0) {
      // Bottom-up from the nodes feeding ordered ones, else top-down from
      // the nodes they feed, else top-down from a fresh seed: the
      // unordered node with the greatest height (critical source first).
      bool top_down = false;
      append_next_to_ordered(top_down);
      if (r.empty()) {
        top_down = true;
        append_next_to_ordered(top_down);
      }
      if (r.empty()) {
        NodeId best = kNoNode;
        for (NodeId v : s) {
          if (ordered[static_cast<size_t>(v)]) continue;
          if (best == kNoNode ||
              height[static_cast<size_t>(v)] >
                  height[static_cast<size_t>(best)]) {
            best = v;
          }
        }
        push(best);
      }
      while (!r.empty()) {
        sweep(top_down);
        top_down = !top_down;
        append_next_to_ordered(top_down);
      }
    }
    for (NodeId v : s) member[static_cast<size_t>(v)] = 0;
  }

  HCRF_CHECK(order.size() == static_cast<size_t>(g.NumNodes()),
             "priority order covers %zu of %d nodes", order.size(),
             g.NumNodes());
}

}  // namespace hcrf::sched
