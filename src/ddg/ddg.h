// Data dependence graph of one innermost loop, the scheduler's input.
//
// Nodes are operations of one loop iteration; edges are dependences with an
// iteration distance (0 = intra-iteration, d>0 = loop carried across d
// iterations). The paper's front end (ICTINEO over the Perfect Club) emits
// single-basic-block, if-converted innermost loops; src/workload generates
// equivalent graphs.
//
// The graph is mutable because MIRS_HC inserts and removes communication
// (Move/LoadR/StoreR) and spill (Load/Store) operations while scheduling.
// Node ids are stable: removal tombstones the node and its edges.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine_config.h"
#include "machine/op.h"

namespace hcrf {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Static description of a memory access for the cache simulator: the
/// address at iteration i is `base + stride * i` (bytes).
struct MemRef {
  std::int32_t array_id = 0;  ///< Disambiguated base array.
  std::int64_t base = 0;      ///< First-iteration byte address within array.
  std::int64_t stride = 8;    ///< Bytes advanced per iteration (0=invariant).
};

/// Dependence kinds. Flow dependences carry a register value (and define
/// lifetimes); Anti/Output order register reuse; Mem orders memory accesses
/// that may alias.
enum class DepKind : std::uint8_t { kFlow, kAnti, kOutput, kMem };

std::string_view ToString(DepKind kind);

struct Edge {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  DepKind kind = DepKind::kFlow;
  std::int32_t distance = 0;  ///< Iteration distance (>= 0).
};

struct Node {
  OpClass op = OpClass::kFAdd;
  /// Valid for kLoad/kStore nodes; used by the memory simulator.
  std::optional<MemRef> mem;
  /// Loop-invariant values (live-in for the whole loop) consumed by this
  /// node, by invariant id. Each referenced invariant pins one register in
  /// every bank from which it is read (paper Section 5.1).
  std::vector<std::int32_t> invariant_uses;
  bool alive = true;
  /// True for nodes inserted by the scheduler (communication/spill); they
  /// can be removed again on ejection.
  bool inserted = false;
  /// True for nodes inserted by the spill engine (spill loads/stores and
  /// hierarchical StoreR/LoadR spill copies). Distinguishes them from
  /// inter-cluster communication nodes, which are removed on ejection.
  bool spill = false;
};

/// Minimum initiation interval and its components (see mii.h).
struct MIIInfo {
  int res_mii = 1;
  int rec_mii = 1;
  int MII() const { return res_mii > rec_mii ? res_mii : rec_mii; }
};

/// Observer of graph mutations that affect value lifetimes. The scheduler's
/// incremental pressure tracker installs one on its working graph so edge
/// rewires (communication chains, spill reroutes) and node removals reach
/// it without every mutation site knowing about pressure. Edge callbacks
/// carry the exact edge so the listener can apply an O(1) delta when only
/// one consumer read changed. Callbacks run synchronously after the
/// mutation completes and must not mutate the graph.
class DdgListener {
 public:
  virtual ~DdgListener() = default;
  /// A flow edge was added: `e.src`'s value gained the consumer `e.dst`.
  virtual void OnFlowEdgeAdded(const Edge& e) = 0;
  /// A flow edge was removed (also fired for each flow in-edge detached by
  /// RemoveNode, with the pre-removal edge).
  virtual void OnFlowEdgeRemoved(const Edge& e) = 0;
  /// `v` was tombstoned (its flow producers are notified separately).
  virtual void OnNodeRemoved(NodeId v) = 0;
};

class DDG {
 public:
  DDG() = default;
  explicit DDG(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Pre-sizes the node tables for `slots` nodes in total (a parser knows
  /// the count up front). Changes no content.
  void Reserve(int slots);

  NodeId AddNode(Node node);
  NodeId AddNode(OpClass op) {
    Node n;
    n.op = op;
    return AddNode(std::move(n));
  }
  /// Adds a dependence edge; self-edges (src==dst) require distance>0.
  void AddEdge(NodeId src, NodeId dst, DepKind kind, int distance = 0);
  void AddFlow(NodeId src, NodeId dst, int distance = 0) {
    AddEdge(src, dst, DepKind::kFlow, distance);
  }

  /// Tombstones the node and detaches all its edges. Asserts the node is an
  /// `inserted` node or that the caller passed force=true: original loop
  /// operations are never removed by the scheduler.
  void RemoveNode(NodeId id, bool force = false);

  /// Removes one edge matching (src, dst, kind, distance) exactly.
  /// Returns false if no such edge exists.
  bool RemoveEdge(NodeId src, NodeId dst, DepKind kind, int distance);

  /// Declares a loop-invariant live-in value; returns its id.
  std::int32_t AddInvariant();
  std::int32_t num_invariants() const { return num_invariants_; }

  bool IsAlive(NodeId id) const { return nodes_[static_cast<size_t>(id)].alive; }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }

  /// Total slots including tombstones; iterate with IsAlive guard.
  NodeId NumSlots() const { return static_cast<NodeId>(nodes_.size()); }
  /// Number of alive nodes.
  int NumNodes() const { return num_alive_; }
  /// Ids of all alive nodes, ascending.
  std::vector<NodeId> AliveNodes() const;

  /// Alive edges entering / leaving `id`.
  const std::vector<Edge>& InEdges(NodeId id) const {
    return in_[static_cast<size_t>(id)];
  }
  const std::vector<Edge>& OutEdges(NodeId id) const {
    return out_[static_cast<size_t>(id)];
  }
  /// All alive edges (materialized; O(E)).
  std::vector<Edge> Edges() const;
  int NumEdges() const { return num_edges_; }

  /// Dependence latency of an edge under the given latency table:
  /// Flow -> producer latency; Anti/Output/Mem -> 1.
  int EdgeLatency(const Edge& e, const LatencyTable& lat) const;

  /// Flow consumers of the value defined by `id` (alive flow out-edges).
  std::vector<Edge> FlowConsumers(NodeId id) const;
  /// Flow producers feeding `id`.
  std::vector<Edge> FlowProducers(NodeId id) const;

  /// Counts alive nodes per kind of resource: {compute, memory, comm}.
  struct OpCounts {
    int compute = 0;
    int memory = 0;
    int comm = 0;
    /// FU occupancy accounting for unpipelined div/sqrt.
    int compute_occupancy = 0;
  };
  OpCounts CountOps(const LatencyTable& lat) const;

  /// Simple structural sanity check (edge endpoints alive, distances >= 0).
  bool Check(std::string* why = nullptr) const;

  /// Installs (or clears, with nullptr) the mutation listener. The slot is
  /// deliberately excluded from copy and move: `g = original` at the start
  /// of an II attempt and moving the final graph into the ScheduleResult
  /// must never transplant a tracker wired to different state.
  void SetListener(DdgListener* listener) { listener_.ptr = listener; }
  DdgListener* listener() const { return listener_.ptr; }

 private:
  /// Pointer wrapper whose copy/move constructors produce an empty slot
  /// and whose assignments keep the destination's slot, so DDG's implicit
  /// special members never propagate a listener between graphs.
  struct ListenerSlot {
    DdgListener* ptr = nullptr;
    ListenerSlot() = default;
    ListenerSlot(const ListenerSlot&) noexcept {}
    ListenerSlot(ListenerSlot&&) noexcept {}
    ListenerSlot& operator=(const ListenerSlot&) noexcept { return *this; }
    ListenerSlot& operator=(ListenerSlot&&) noexcept { return *this; }
  };

  void NotifyFlowEdgeAdded(const Edge& e) {
    if (listener_.ptr != nullptr) listener_.ptr->OnFlowEdgeAdded(e);
  }
  void NotifyFlowEdgeRemoved(const Edge& e) {
    if (listener_.ptr != nullptr) listener_.ptr->OnFlowEdgeRemoved(e);
  }

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<Edge>> in_;
  std::vector<std::vector<Edge>> out_;
  std::int32_t num_invariants_ = 0;
  int num_alive_ = 0;
  int num_edges_ = 0;
  ListenerSlot listener_;
};

}  // namespace hcrf
