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
//
// The node and adjacency tables keep their storage when a graph is reset
// from another one (ResetFrom, copy assignment): slots past the new size
// stay allocated as spares that AddNode reuses. The scheduler resets its
// working graph from the input loop at every II attempt, and this is what
// keeps those resets free of heap traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/// The flow edges of one adjacency list, filtered lazily: iterating
/// allocates nothing. A view reads the list in place, so any mutation of
/// that node's adjacency invalidates it.
class FlowEdgeView {
 public:
  class iterator {
   public:
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = const Edge&;
    using pointer = const Edge*;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const Edge* p, const Edge* end) : p_(p), end_(end) { Skip(); }
    const Edge& operator*() const { return *p_; }
    const Edge* operator->() const { return p_; }
    iterator& operator++() {
      ++p_;
      Skip();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const { return p_ == o.p_; }

   private:
    void Skip() {
      while (p_ != end_ && p_->kind != DepKind::kFlow) ++p_;
    }
    const Edge* p_ = nullptr;
    const Edge* end_ = nullptr;
  };

  explicit FlowEdgeView(const std::vector<Edge>& list)
      : begin_(list.data()), end_(list.data() + list.size()) {}
  iterator begin() const { return {begin_, end_}; }
  iterator end() const { return {end_, end_}; }
  bool empty() const { return begin() == end(); }
  /// The first flow edge. Precondition: !empty().
  const Edge& front() const { return *begin(); }

 private:
  const Edge* begin_;
  const Edge* end_;
};

class DDG {
 public:
  DDG() = default;
  explicit DDG(std::string name) : name_(std::move(name)) {}

  /// Copies the graph (not its spare slots, and never the listener).
  DDG(const DDG& other);
  /// Same as ResetFrom(other).
  DDG& operator=(const DDG& other);
  DDG(DDG&& other) noexcept;
  DDG& operator=(DDG&& other) noexcept;
  ~DDG() = default;

  /// Makes this graph equal to `other` (nodes, edges in both adjacency
  /// orders, invariants, name) while keeping every buffer this graph
  /// already owns: when its tables are large enough, no allocation
  /// happens. The listener slot stays this graph's own.
  void ResetFrom(const DDG& other);

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
  NodeId NumSlots() const { return num_slots_; }
  /// Number of alive nodes.
  int NumNodes() const { return num_alive_; }
  /// Slots the tables hold, spares included (>= NumSlots()).
  NodeId SlotCapacity() const { return static_cast<NodeId>(nodes_.size()); }
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
  FlowEdgeView FlowConsumers(NodeId id) const {
    return FlowEdgeView(OutEdges(id));
  }
  /// Flow producers feeding `id`.
  FlowEdgeView FlowProducers(NodeId id) const {
    return FlowEdgeView(InEdges(id));
  }

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
  /// deliberately excluded from copy and move: resetting the working graph
  /// at the start of an II attempt and copying the final graph into the
  /// ScheduleResult must never transplant a tracker wired to different
  /// state.
  void SetListener(DdgListener* listener) { listener_ = listener; }
  DdgListener* listener() const { return listener_; }

 private:
  void NotifyFlowEdgeAdded(const Edge& e) {
    if (listener_ != nullptr) listener_->OnFlowEdgeAdded(e);
  }
  void NotifyFlowEdgeRemoved(const Edge& e) {
    if (listener_ != nullptr) listener_->OnFlowEdgeRemoved(e);
  }

  std::string name_;
  /// Node and adjacency tables, indexed by id. Entries at or past
  /// num_slots_ are spares kept from a larger graph (see ResetFrom).
  std::vector<Node> nodes_;
  std::vector<std::vector<Edge>> in_;
  std::vector<std::vector<Edge>> out_;
  NodeId num_slots_ = 0;
  std::int32_t num_invariants_ = 0;
  int num_alive_ = 0;
  int num_edges_ = 0;
  /// Never copied or moved: the special members leave it empty on a new
  /// graph and keep the destination's own on assignment.
  DdgListener* listener_ = nullptr;
};

}  // namespace hcrf
