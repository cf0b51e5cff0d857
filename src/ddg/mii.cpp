#include "ddg/mii.h"

#include <algorithm>

namespace hcrf {

namespace {

// Is there a cycle with positive total weight lat(e) - ii*dist(e) among the
// given nodes? Longest-path Bellman-Ford; returns true if relaxation does
// not converge in |V| rounds. `ws.member` is all-zero on entry and on
// return; `ws.dist` is read only at member nodes, which start at 0 here
// (every distance a relaxation reads is finite).
bool HasPositiveCycle(const DDG& g, const LatencyTable& lat,
                      std::span<const NodeId> nodes, int ii,
                      GraphScratch& ws) {
  for (NodeId v : nodes) {
    ws.dist[static_cast<size_t>(v)] = 0;
    ws.member[static_cast<size_t>(v)] = 1;
  }
  bool positive = true;
  const int rounds = static_cast<int>(nodes.size());
  for (int round = 0; round <= rounds; ++round) {
    bool changed = false;
    for (NodeId v : nodes) {
      const long dv = ws.dist[static_cast<size_t>(v)];
      for (const Edge& e : g.OutEdges(v)) {
        if (!ws.member[static_cast<size_t>(e.dst)]) continue;
        const long w =
            g.EdgeLatency(e, lat) - static_cast<long>(ii) * e.distance;
        if (dv + w > ws.dist[static_cast<size_t>(e.dst)]) {
          ws.dist[static_cast<size_t>(e.dst)] = dv + w;
          changed = true;
        }
      }
    }
    if (!changed) {
      positive = false;
      break;
    }
  }
  for (NodeId v : nodes) ws.member[static_cast<size_t>(v)] = 0;
  return positive;
}

int RecMIIOnNodes(const DDG& g, const LatencyTable& lat,
                  std::span<const NodeId> nodes, GraphScratch& ws) {
  if (nodes.empty()) return 1;
  const auto n = static_cast<size_t>(g.NumSlots());
  if (ws.dist.size() < n) ws.dist.resize(n);
  if (ws.member.size() < n) ws.member.resize(n, 0);
  // Upper bound: sum of all latencies inside the node set.
  long hi = 1;
  for (NodeId v : nodes) {
    hi += lat.Of(g.node(v).op);
  }
  long lo = 1;
  // RecMII is the smallest II such that no positive cycle exists; note that
  // a zero-weight cycle is fine (the recurrence exactly fits).
  while (lo < hi) {
    const long mid = lo + (hi - lo) / 2;
    if (HasPositiveCycle(g, lat, nodes, static_cast<int>(mid), ws)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo);
}

}  // namespace

int ResMII(const DDG& g, const MachineConfig& m) {
  const DDG::OpCounts c = g.CountOps(m.lat);
  int mii = 1;
  if (c.compute_occupancy > 0) {
    mii = std::max(mii, (c.compute_occupancy + m.num_fus - 1) / m.num_fus);
  }
  if (c.memory > 0) {
    mii = std::max(mii, (c.memory + m.num_mem_ports - 1) / m.num_mem_ports);
  }
  return mii;
}

bool IsRecurrence(const DDG& g, std::span<const NodeId> scc) {
  if (scc.size() != 1) return !scc.empty();
  const NodeId v = scc.front();
  for (const Edge& e : g.OutEdges(v)) {
    if (e.dst == v) return true;
  }
  return false;
}

int RecMII(const DDG& g, const LatencyTable& lat, GraphScratch& ws) {
  SCCs(g, ws);
  int mii = 1;
  for (std::size_t k = 0; k < ws.sccs.size(); ++k) {
    const std::span<const NodeId> scc = ws.sccs[k];
    if (!IsRecurrence(g, scc)) continue;
    mii = std::max(mii, RecMIIOnNodes(g, lat, scc, ws));
  }
  return mii;
}

int RecMII(const DDG& g, const LatencyTable& lat) {
  GraphScratch ws;
  return RecMII(g, lat, ws);
}

MIIInfo ComputeMII(const DDG& g, const MachineConfig& m, GraphScratch& ws) {
  return MIIInfo{.res_mii = ResMII(g, m), .rec_mii = RecMII(g, m.lat, ws)};
}

MIIInfo ComputeMII(const DDG& g, const MachineConfig& m) {
  GraphScratch ws;
  return ComputeMII(g, m, ws);
}

int SccRecMII(const DDG& g, const LatencyTable& lat,
              std::span<const NodeId> scc, GraphScratch& ws) {
  return RecMIIOnNodes(g, lat, scc, ws);
}

void SCCs(const DDG& g, GraphScratch& ws) {
  // Iterative Tarjan to avoid recursion depth limits on long chains.
  const NodeId n = g.NumSlots();
  ws.index.assign(static_cast<size_t>(n), -1);
  ws.low.assign(static_cast<size_t>(n), 0);
  ws.on_stack.assign(static_cast<size_t>(n), 0);
  ws.stack.clear();
  ws.call.clear();
  ws.sccs.nodes.clear();
  ws.sccs.offsets.assign(1, 0);
  std::vector<int>& index = ws.index;
  std::vector<int>& low = ws.low;
  int counter = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (!g.IsAlive(root) || index[static_cast<size_t>(root)] != -1) continue;
    ws.call.push_back({root, g.OutEdges(root).begin()});
    index[static_cast<size_t>(root)] = low[static_cast<size_t>(root)] =
        counter++;
    ws.stack.push_back(root);
    ws.on_stack[static_cast<size_t>(root)] = 1;

    while (!ws.call.empty()) {
      GraphScratch::Frame& f = ws.call.back();
      if (f.next != g.OutEdges(f.v).end()) {
        const NodeId w = (f.next++)->dst;
        if (index[static_cast<size_t>(w)] == -1) {
          index[static_cast<size_t>(w)] = low[static_cast<size_t>(w)] =
              counter++;
          ws.stack.push_back(w);
          ws.on_stack[static_cast<size_t>(w)] = 1;
          ws.call.push_back({w, g.OutEdges(w).begin()});
        } else if (ws.on_stack[static_cast<size_t>(w)]) {
          low[static_cast<size_t>(f.v)] = std::min(
              low[static_cast<size_t>(f.v)], index[static_cast<size_t>(w)]);
        }
      } else {
        const NodeId v = f.v;
        ws.call.pop_back();
        if (!ws.call.empty()) {
          low[static_cast<size_t>(ws.call.back().v)] =
              std::min(low[static_cast<size_t>(ws.call.back().v)],
                       low[static_cast<size_t>(v)]);
        }
        if (low[static_cast<size_t>(v)] == index[static_cast<size_t>(v)]) {
          NodeId w;
          do {
            w = ws.stack.back();
            ws.stack.pop_back();
            ws.on_stack[static_cast<size_t>(w)] = 0;
            ws.sccs.nodes.push_back(w);
          } while (w != v);
          ws.sccs.offsets.push_back(ws.sccs.nodes.size());
        }
      }
    }
  }
}

std::vector<std::vector<NodeId>> SCCs(const DDG& g) {
  GraphScratch ws;
  SCCs(g, ws);
  std::vector<std::vector<NodeId>> sccs;
  sccs.reserve(ws.sccs.size());
  for (std::size_t k = 0; k < ws.sccs.size(); ++k) {
    const std::span<const NodeId> scc = ws.sccs[k];
    sccs.emplace_back(scc.begin(), scc.end());
  }
  return sccs;
}

std::vector<bool> NodesOnRecurrences(const DDG& g) {
  std::vector<bool> result(static_cast<size_t>(g.NumSlots()), false);
  GraphScratch ws;
  SCCs(g, ws);
  for (std::size_t k = 0; k < ws.sccs.size(); ++k) {
    const std::span<const NodeId> scc = ws.sccs[k];
    if (!IsRecurrence(g, scc)) continue;
    for (NodeId v : scc) result[static_cast<size_t>(v)] = true;
  }
  return result;
}

}  // namespace hcrf
