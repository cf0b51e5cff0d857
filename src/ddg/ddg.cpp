#include "ddg/ddg.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"

namespace hcrf {

std::string_view ToString(DepKind kind) {
  switch (kind) {
    case DepKind::kFlow: return "flow";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
    case DepKind::kMem: return "mem";
  }
  return "?";
}

void DDG::Reserve(int slots) {
  const auto n = static_cast<size_t>(slots);
  nodes_.reserve(n);
  in_.reserve(n);
  out_.reserve(n);
}

NodeId DDG::AddNode(Node node) {
  node.alive = true;
  nodes_.push_back(std::move(node));
  in_.emplace_back();
  out_.emplace_back();
  ++num_alive_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void DDG::AddEdge(NodeId src, NodeId dst, DepKind kind, int distance) {
  if (src < 0 || dst < 0 || src >= NumSlots() || dst >= NumSlots()) {
    throw std::out_of_range("DDG::AddEdge: node id out of range");
  }
  if (distance < 0) throw std::invalid_argument("DDG::AddEdge: distance < 0");
  if (src == dst && distance == 0) {
    throw std::invalid_argument("DDG::AddEdge: zero-distance self edge");
  }
  HCRF_CHECK(IsAlive(src) && IsAlive(dst),
             "AddEdge touching a dead node (src=%d dst=%d)", src, dst);
  const Edge e{src, dst, kind, distance};
  out_[static_cast<size_t>(src)].push_back(e);
  in_[static_cast<size_t>(dst)].push_back(e);
  ++num_edges_;
  if (kind == DepKind::kFlow) NotifyFlowEdgeAdded(e);
}

void DDG::RemoveNode(NodeId id, bool force) {
  Node& n = nodes_[static_cast<size_t>(id)];
  if (!n.alive) return;
  if (!n.inserted && !force) {
    throw std::logic_error(
        "DDG::RemoveNode: refusing to remove an original loop operation");
  }
  // Detach edges referencing this node from the adjacency of the peers.
  auto detach = [&](std::vector<Edge>& list) {
    std::erase_if(list, [id](const Edge& e) { return e.src == id || e.dst == id; });
  };
  for (const Edge& e : out_[static_cast<size_t>(id)]) {
    detach(in_[static_cast<size_t>(e.dst)]);
    --num_edges_;
  }
  for (const Edge& e : in_[static_cast<size_t>(id)]) {
    detach(out_[static_cast<size_t>(e.src)]);
    --num_edges_;
  }
  out_[static_cast<size_t>(id)].clear();
  n.alive = false;
  --num_alive_;
  // Producers losing a flow consumer are notified after their own
  // adjacency (everything a listener reads) is consistent again; the dead
  // node's in-list doubles as the pending-notification buffer so removal
  // allocates nothing on the ejection/GC path.
  for (const Edge& e : in_[static_cast<size_t>(id)]) {
    if (e.kind == DepKind::kFlow && e.src != id) NotifyFlowEdgeRemoved(e);
  }
  in_[static_cast<size_t>(id)].clear();
  if (listener_.ptr != nullptr) listener_.ptr->OnNodeRemoved(id);
}

bool DDG::RemoveEdge(NodeId src, NodeId dst, DepKind kind, int distance) {
  auto matches = [&](const Edge& e) {
    return e.src == src && e.dst == dst && e.kind == kind &&
           e.distance == distance;
  };
  auto& outs = out_[static_cast<size_t>(src)];
  auto out_it = std::find_if(outs.begin(), outs.end(), matches);
  if (out_it == outs.end()) return false;
  outs.erase(out_it);
  auto& ins = in_[static_cast<size_t>(dst)];
  auto in_it = std::find_if(ins.begin(), ins.end(), matches);
  HCRF_CHECK(in_it != ins.end(),
             "edge %d->%d present in out-list but missing from in-list",
             src, dst);
  ins.erase(in_it);
  --num_edges_;
  if (kind == DepKind::kFlow) {
    NotifyFlowEdgeRemoved(Edge{src, dst, kind, distance});
  }
  return true;
}

std::int32_t DDG::AddInvariant() { return num_invariants_++; }

std::vector<NodeId> DDG::AliveNodes() const {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<size_t>(num_alive_));
  for (NodeId i = 0; i < NumSlots(); ++i) {
    if (nodes_[static_cast<size_t>(i)].alive) ids.push_back(i);
  }
  return ids;
}

std::vector<Edge> DDG::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (NodeId i = 0; i < NumSlots(); ++i) {
    if (!nodes_[static_cast<size_t>(i)].alive) continue;
    for (const Edge& e : out_[static_cast<size_t>(i)]) edges.push_back(e);
  }
  return edges;
}

int DDG::EdgeLatency(const Edge& e, const LatencyTable& lat) const {
  switch (e.kind) {
    case DepKind::kFlow:
      return lat.Of(node(e.src).op);
    case DepKind::kAnti:
    case DepKind::kOutput:
    case DepKind::kMem:
      return 1;
  }
  return 1;
}

std::vector<Edge> DDG::FlowConsumers(NodeId id) const {
  std::vector<Edge> result;
  for (const Edge& e : out_[static_cast<size_t>(id)]) {
    if (e.kind == DepKind::kFlow) result.push_back(e);
  }
  return result;
}

std::vector<Edge> DDG::FlowProducers(NodeId id) const {
  std::vector<Edge> result;
  for (const Edge& e : in_[static_cast<size_t>(id)]) {
    if (e.kind == DepKind::kFlow) result.push_back(e);
  }
  return result;
}

DDG::OpCounts DDG::CountOps(const LatencyTable& lat) const {
  OpCounts c;
  for (NodeId i = 0; i < NumSlots(); ++i) {
    const Node& n = nodes_[static_cast<size_t>(i)];
    if (!n.alive) continue;
    if (IsCompute(n.op)) {
      ++c.compute;
      c.compute_occupancy += IsUnpipelined(n.op) ? lat.Of(n.op) : 1;
    } else if (IsMemory(n.op)) {
      ++c.memory;
    } else {
      ++c.comm;
    }
  }
  return c;
}

bool DDG::Check(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  int alive = 0;
  int edges = 0;
  for (NodeId i = 0; i < NumSlots(); ++i) {
    const Node& n = nodes_[static_cast<size_t>(i)];
    if (!n.alive) {
      if (!in_[static_cast<size_t>(i)].empty() ||
          !out_[static_cast<size_t>(i)].empty()) {
        return fail("tombstoned node has edges");
      }
      continue;
    }
    ++alive;
    for (const Edge& e : out_[static_cast<size_t>(i)]) {
      ++edges;
      if (e.src != i) return fail("out edge with wrong src");
      if (!IsAlive(e.dst)) return fail("edge to dead node");
      if (e.distance < 0) return fail("negative distance");
      if (e.kind == DepKind::kFlow && !DefinesValue(node(e.src).op)) {
        return fail("flow edge from non-defining op");
      }
    }
    for (const Edge& e : in_[static_cast<size_t>(i)]) {
      if (e.dst != i) return fail("in edge with wrong dst");
      if (!IsAlive(e.src)) return fail("edge from dead node");
    }
  }
  if (alive != num_alive_) return fail("alive count mismatch");
  if (edges != num_edges_) return fail("edge count mismatch");
  return true;
}

}  // namespace hcrf
