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

DDG::DDG(const DDG& other)
    : name_(other.name_),
      nodes_(other.nodes_.begin(), other.nodes_.begin() + other.num_slots_),
      in_(other.in_.begin(), other.in_.begin() + other.num_slots_),
      out_(other.out_.begin(), other.out_.begin() + other.num_slots_),
      num_slots_(other.num_slots_),
      num_invariants_(other.num_invariants_),
      num_alive_(other.num_alive_),
      num_edges_(other.num_edges_) {}

DDG& DDG::operator=(const DDG& other) {
  ResetFrom(other);
  return *this;
}

DDG::DDG(DDG&& other) noexcept
    : name_(std::move(other.name_)),
      nodes_(std::move(other.nodes_)),
      in_(std::move(other.in_)),
      out_(std::move(other.out_)),
      num_slots_(std::exchange(other.num_slots_, 0)),
      num_invariants_(std::exchange(other.num_invariants_, 0)),
      num_alive_(std::exchange(other.num_alive_, 0)),
      num_edges_(std::exchange(other.num_edges_, 0)) {}

DDG& DDG::operator=(DDG&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  nodes_ = std::move(other.nodes_);
  in_ = std::move(other.in_);
  out_ = std::move(other.out_);
  num_slots_ = std::exchange(other.num_slots_, 0);
  num_invariants_ = std::exchange(other.num_invariants_, 0);
  num_alive_ = std::exchange(other.num_alive_, 0);
  num_edges_ = std::exchange(other.num_edges_, 0);
  other.nodes_.clear();
  other.in_.clear();
  other.out_.clear();
  return *this;
}

void DDG::ResetFrom(const DDG& other) {
  if (this == &other) return;
  name_ = other.name_;
  const auto n = static_cast<size_t>(other.num_slots_);
  if (nodes_.size() < n) {
    nodes_.resize(n);
    in_.resize(n);
    out_.resize(n);
  }
  // Element-wise assignment reuses each slot's invariant-use and adjacency
  // storage; slots past `n` become spares for AddNode.
  for (size_t i = 0; i < n; ++i) {
    nodes_[i] = other.nodes_[i];
    in_[i] = other.in_[i];
    out_[i] = other.out_[i];
  }
  num_slots_ = other.num_slots_;
  num_invariants_ = other.num_invariants_;
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
}

void DDG::Reserve(int slots) {
  const auto n = static_cast<size_t>(slots);
  nodes_.reserve(n);
  in_.reserve(n);
  out_.reserve(n);
}

NodeId DDG::AddNode(Node node) {
  const NodeId id = num_slots_++;
  const auto i = static_cast<size_t>(id);
  node.alive = true;
  if (i < nodes_.size()) {
    // A spare slot: the node replaces it whole, but the slot's
    // invariant-use and adjacency buffers keep their capacity.
    std::vector<std::int32_t> uses = std::move(nodes_[i].invariant_uses);
    uses.assign(node.invariant_uses.begin(), node.invariant_uses.end());
    node.invariant_uses = std::move(uses);
    nodes_[i] = std::move(node);
    in_[i].clear();
    out_[i].clear();
  } else {
    nodes_.push_back(std::move(node));
    in_.emplace_back();
    out_.emplace_back();
  }
  ++num_alive_;
  return id;
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
  if (listener_ != nullptr) listener_->OnNodeRemoved(id);
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
