#include "ddg/ddg.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

DDG::DDG(DDG&& other) noexcept { *this = std::move(other); }

DDG& DDG::operator=(DDG&& other) noexcept {
  if (this == &other) return *this;
  // A moved-from graph is empty, not merely valid.
  name_ = std::exchange(other.name_, {});
  slots_ = std::exchange(other.slots_, {});
  edges_ = std::exchange(other.edges_, {});
  inv_uses_ = std::exchange(other.inv_uses_, {});
  num_invariants_ = std::exchange(other.num_invariants_, 0);
  num_alive_ = std::exchange(other.num_alive_, 0);
  num_edges_ = std::exchange(other.num_edges_, 0);
  return *this;
}

void DDG::Reserve(int slots, int edges) {
  slots_.reserve(static_cast<size_t>(slots));
  edges_.reserve(static_cast<size_t>(edges));
}

NodeId DDG::AddNode(Node node) {
  node.alive = true;
  NodeSlot s;
  s.node = node;
  s.inv_begin = static_cast<std::int32_t>(inv_uses_.size());
  slots_.push_back(s);
  ++num_alive_;
  return static_cast<NodeId>(slots_.size() - 1);
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
  const auto id = static_cast<EdgeId>(edges_.size());
  EdgeRecord rec;
  rec.edge = e;
  // Append to the source's out-list (0) and the destination's in-list (1).
  const NodeId owner[2] = {src, dst};
  for (int d = 0; d < 2; ++d) {
    NodeSlot& s = slots_[static_cast<size_t>(owner[d])];
    rec.prev[d] = s.last[d];
    if (s.last[d] == kNoEdge) {
      s.first[d] = id;
    } else {
      edges_[static_cast<size_t>(s.last[d])].next[d] = id;
    }
    s.last[d] = id;
  }
  edges_.push_back(rec);
  ++num_edges_;
  if (kind == DepKind::kFlow) NotifyFlowEdgeAdded(e);
}

void DDG::Unlink(EdgeId id) {
  EdgeRecord& rec = edges_[static_cast<size_t>(id)];
  const NodeId owner[2] = {rec.edge.src, rec.edge.dst};
  for (int d = 0; d < 2; ++d) {
    NodeSlot& s = slots_[static_cast<size_t>(owner[d])];
    if (rec.prev[d] == kNoEdge) {
      s.first[d] = rec.next[d];
    } else {
      edges_[static_cast<size_t>(rec.prev[d])].next[d] = rec.next[d];
    }
    if (rec.next[d] == kNoEdge) {
      s.last[d] = rec.prev[d];
    } else {
      edges_[static_cast<size_t>(rec.next[d])].prev[d] = rec.prev[d];
    }
  }
  // The record keeps its own links: a walk that stands on it can go on.
  rec.alive = false;
  --num_edges_;
}

void DDG::RemoveNode(NodeId id, bool force) {
  NodeSlot& s = slots_[static_cast<size_t>(id)];
  if (!s.node.alive) return;
  if (!s.node.inserted && !force) {
    throw std::logic_error(
        "DDG::RemoveNode: refusing to remove an original loop operation");
  }
  // Out-edges first: a self loop leaves the in-list with them.
  while (s.first[EdgeView::kOut] != kNoEdge) Unlink(s.first[EdgeView::kOut]);
  // Each in-edge is unlinked from the head, so the removed records stay
  // chained through their own next-in links for the notification pass.
  const EdgeId removed_in = s.first[EdgeView::kIn];
  while (s.first[EdgeView::kIn] != kNoEdge) Unlink(s.first[EdgeView::kIn]);
  s.node.alive = false;
  --num_alive_;
  // Producers losing a flow consumer are notified after their own
  // adjacency (everything a listener reads) is consistent again.
  for (EdgeId e = removed_in; e != kNoEdge;
       e = edges_[static_cast<size_t>(e)].next[EdgeView::kIn]) {
    const Edge& edge = edges_[static_cast<size_t>(e)].edge;
    if (edge.kind == DepKind::kFlow) NotifyFlowEdgeRemoved(edge);
  }
  if (listener_.p != nullptr) listener_.p->OnNodeRemoved(id);
}

bool DDG::RemoveEdge(NodeId src, NodeId dst, DepKind kind, int distance) {
  for (EdgeId id = slots_[static_cast<size_t>(src)].first[EdgeView::kOut];
       id != kNoEdge;
       id = edges_[static_cast<size_t>(id)].next[EdgeView::kOut]) {
    const Edge& e = edges_[static_cast<size_t>(id)].edge;
    if (e.dst != dst || e.kind != kind || e.distance != distance) continue;
    Unlink(id);
    if (kind == DepKind::kFlow) NotifyFlowEdgeRemoved(e);
    return true;
  }
  return false;
}

std::int32_t DDG::AddInvariant() { return num_invariants_++; }

void DDG::AddInvariantUse(NodeId id, std::int32_t inv) {
  NodeSlot& s = slots_[static_cast<size_t>(id)];
  const auto end = static_cast<std::int32_t>(inv_uses_.size());
  if (s.inv_begin + s.inv_count != end) {
    // Not the pool's last run: move the run to the end first.
    const std::int32_t begin = s.inv_begin;
    s.inv_begin = end;
    for (std::int32_t k = 0; k < s.inv_count; ++k) {
      inv_uses_.push_back(inv_uses_[static_cast<size_t>(begin + k)]);
    }
  }
  inv_uses_.push_back(inv);
  ++s.inv_count;
}

bool DDG::RemoveInvariantUse(NodeId id, std::int32_t inv) {
  NodeSlot& s = slots_[static_cast<size_t>(id)];
  const auto run = inv_uses_.begin() + s.inv_begin;
  const auto it = std::find(run, run + s.inv_count, inv);
  if (it == run + s.inv_count) return false;
  std::copy(it + 1, run + s.inv_count, it);
  --s.inv_count;
  return true;
}

std::vector<NodeId> DDG::AliveNodes() const {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<size_t>(num_alive_));
  for (NodeId i = 0; i < NumSlots(); ++i) {
    if (IsAlive(i)) ids.push_back(i);
  }
  return ids;
}

DDG::OpCounts DDG::CountOps(const LatencyTable& lat) const {
  OpCounts c;
  for (NodeId i = 0; i < NumSlots(); ++i) {
    const Node& n = node(i);
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
  for (NodeId i = 0; i < NumSlots(); ++i) {
    const NodeSlot& s = slots_[static_cast<size_t>(i)];
    if (!s.node.alive) {
      if (s.first[EdgeView::kOut] != kNoEdge ||
          s.first[EdgeView::kIn] != kNoEdge) {
        return fail("tombstoned node has edges");
      }
      continue;
    }
    ++alive;
    for (const Edge& e : OutEdges(i)) {
      if (e.src != i) return fail("out edge with wrong src");
    }
    for (const Edge& e : InEdges(i)) {
      if (e.dst != i) return fail("in edge with wrong dst");
    }
  }
  int edges = 0;
  for (const Edge& e : Edges()) {
    ++edges;
    if (!IsAlive(e.src)) return fail("edge from dead node");
    if (!IsAlive(e.dst)) return fail("edge to dead node");
    if (e.distance < 0) return fail("negative distance");
    if (e.kind == DepKind::kFlow && !DefinesValue(node(e.src).op)) {
      return fail("flow edge from non-defining op");
    }
  }
  if (alive != num_alive_) return fail("alive count mismatch");
  if (edges != num_edges_) return fail("edge count mismatch");
  return true;
}

}  // namespace hcrf
