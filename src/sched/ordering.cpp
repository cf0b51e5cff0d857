#include "sched/ordering.h"

#include <algorithm>
#include <span>

#include "core/check.h"
#include "ddg/mii.h"

namespace hcrf::sched {

namespace {

// Longest distance-0 paths into ws.depth / ws.height (see DepthHeight).
void DepthHeightInto(const DDG& g, const LatencyTable& lat,
                     OrderingScratch& ws) {
  const size_t n = static_cast<size_t>(g.NumSlots());
  ws.depth.assign(n, 0);
  ws.height.assign(n, 0);

  // Topological order of the distance-0 subgraph (acyclic by construction:
  // a valid loop has no zero-distance dependence cycles).
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
    const NodeId v = queue[head];
    const EdgeView edges = forward ? g.OutEdges(v) : g.InEdges(v);
    for (const Edge& e : edges) {
      const NodeId w = forward ? e.dst : e.src;
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
}

}  // namespace

DepthHeight ComputeDepthHeight(const DDG& g, const LatencyTable& lat) {
  OrderingScratch ws;
  DepthHeightInto(g, lat, ws);
  return DepthHeight{std::move(ws.depth), std::move(ws.height)};
}

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
  std::vector<NodeId>& r = ws.ready;

  for (size_t k = 0; k + 1 < ws.set_offsets.size(); ++k) {
    const std::span<const NodeId> s(ws.set_nodes.data() + ws.set_offsets[k],
                                    ws.set_offsets[k + 1] - ws.set_offsets[k]);
    for (NodeId v : s) member[static_cast<size_t>(v)] = 1;
    size_t remaining = s.size();

    auto append_preds_of_ordered = [&]() {
      for (NodeId v : s) {
        if (ordered[static_cast<size_t>(v)]) continue;
        for (const Edge& e : g.OutEdges(v)) {
          if (ordered[static_cast<size_t>(e.dst)]) {
            r.push_back(v);
            break;
          }
        }
      }
    };
    auto append_succs_of_ordered = [&]() {
      for (NodeId v : s) {
        if (ordered[static_cast<size_t>(v)]) continue;
        for (const Edge& e : g.InEdges(v)) {
          if (ordered[static_cast<size_t>(e.src)]) {
            r.push_back(v);
            break;
          }
        }
      }
    };

    while (remaining > 0) {
      bool top_down = true;
      r.clear();
      append_preds_of_ordered();
      if (!r.empty()) {
        top_down = false;  // these feed ordered nodes: go bottom-up
      } else {
        append_succs_of_ordered();
        if (!r.empty()) {
          top_down = true;
        } else {
          // Fresh seed: the unordered node with the greatest height
          // (critical source first).
          NodeId best = kNoNode;
          for (NodeId v : s) {
            if (ordered[static_cast<size_t>(v)]) continue;
            if (best == kNoNode ||
                height[static_cast<size_t>(v)] >
                    height[static_cast<size_t>(best)]) {
              best = v;
            }
          }
          r.push_back(best);
          top_down = true;
        }
      }

      while (!r.empty()) {
        if (top_down) {
          while (!r.empty()) {
            // Max height first (keeps critical paths tight).
            auto it = std::max_element(
                r.begin(), r.end(), [&](NodeId a, NodeId b) {
                  if (height[static_cast<size_t>(a)] !=
                      height[static_cast<size_t>(b)]) {
                    return height[static_cast<size_t>(a)] <
                           height[static_cast<size_t>(b)];
                  }
                  return a > b;
                });
            const NodeId v = *it;
            r.erase(it);
            if (ordered[static_cast<size_t>(v)]) continue;
            ordered[static_cast<size_t>(v)] = 1;
            order.push_back(v);
            --remaining;
            for (const Edge& e : g.OutEdges(v)) {
              if (member[static_cast<size_t>(e.dst)] &&
                  !ordered[static_cast<size_t>(e.dst)]) {
                r.push_back(e.dst);
              }
            }
          }
          top_down = false;
          append_preds_of_ordered();
        } else {
          while (!r.empty()) {
            auto it = std::max_element(
                r.begin(), r.end(), [&](NodeId a, NodeId b) {
                  if (depth[static_cast<size_t>(a)] !=
                      depth[static_cast<size_t>(b)]) {
                    return depth[static_cast<size_t>(a)] <
                           depth[static_cast<size_t>(b)];
                  }
                  return a > b;
                });
            const NodeId v = *it;
            r.erase(it);
            if (ordered[static_cast<size_t>(v)]) continue;
            ordered[static_cast<size_t>(v)] = 1;
            order.push_back(v);
            --remaining;
            for (const Edge& e : g.InEdges(v)) {
              if (member[static_cast<size_t>(e.src)] &&
                  !ordered[static_cast<size_t>(e.src)]) {
                r.push_back(e.src);
              }
            }
          }
          top_down = true;
          append_succs_of_ordered();
        }
      }
    }
    for (NodeId v : s) member[static_cast<size_t>(v)] = 0;
  }

  HCRF_CHECK(order.size() == static_cast<size_t>(g.NumNodes()),
             "priority order covers %zu of %d nodes", order.size(),
             g.NumNodes());
}

}  // namespace hcrf::sched
