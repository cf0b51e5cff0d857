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
// Storage is three flat tables: nodes, edges and invariant uses. Each edge
// is stored once, as a record in the edge table, in insertion order; a
// node's in- and out-lists are doubly linked through those records, so
// both adjacency orders are insertion order too. Removing an edge unlinks
// its record, which stays in the table, dead, until the graph is next
// reset. Re-adding a graph's alive edges in table order (what the .hcl
// loader does with a dump) therefore rebuilds both adjacency orders
// exactly. No node owns a heap buffer, so copy assignment is three table
// copies that keep the destination's storage: the scheduler resets its
// working graph from the input loop at every II attempt without heap
// traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
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

/// Index of a record in a graph's edge table.
using EdgeId = std::int32_t;
inline constexpr EdgeId kNoEdge = -1;

/// One record of the edge table: the edge and its links in the source's
/// out-list (index 0) and the destination's in-list (index 1). A dead
/// record is unlinked from both lists.
struct EdgeRecord {
  Edge edge;
  EdgeId next[2] = {kNoEdge, kNoEdge};
  EdgeId prev[2] = {kNoEdge, kNoEdge};
  bool alive = true;
};

/// A lazily walked sequence of alive edges: one node's out- or in-list, or
/// the whole edge table in insertion order, optionally only its flow
/// edges. Iterating allocates nothing. A view reads the graph in place, so
/// adding an edge (which may grow the table) invalidates it.
class EdgeView {
 public:
  /// kOut and kIn follow EdgeRecord::next[kOut / kIn]; kTable steps
  /// through the table.
  enum Walk : std::uint8_t { kOut = 0, kIn = 1, kTable = 2 };

  class iterator {
   public:
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = const Edge&;
    using pointer = const Edge*;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const EdgeRecord* table, EdgeId id, EdgeId end, Walk walk,
             bool flow_only)
        : table_(table), id_(id), end_(end), walk_(walk),
          flow_only_(flow_only) {
      Skip();
    }
    const Edge& operator*() const { return table_[id_].edge; }
    const Edge* operator->() const { return &table_[id_].edge; }
    iterator& operator++() {
      Step();
      Skip();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const { return id_ == o.id_; }

   private:
    void Step() { id_ = walk_ == kTable ? id_ + 1 : table_[id_].next[walk_]; }
    void Skip() {
      while (id_ != end_ &&
             (!table_[id_].alive ||
              (flow_only_ && table_[id_].edge.kind != DepKind::kFlow))) {
        Step();
      }
    }
    const EdgeRecord* table_ = nullptr;
    EdgeId id_ = kNoEdge;
    EdgeId end_ = kNoEdge;
    Walk walk_ = kOut;
    bool flow_only_ = false;
  };

  EdgeView(const EdgeRecord* table, EdgeId first, EdgeId end, Walk walk,
           bool flow_only)
      : table_(table), first_(first), end_(end), walk_(walk),
        flow_only_(flow_only) {}
  iterator begin() const { return {table_, first_, end_, walk_, flow_only_}; }
  iterator end() const { return {table_, end_, end_, walk_, flow_only_}; }
  bool empty() const { return begin() == end(); }
  /// The first edge. Precondition: !empty().
  const Edge& front() const { return *begin(); }

 private:
  const EdgeRecord* table_;
  EdgeId first_;
  EdgeId end_;
  Walk walk_;
  bool flow_only_;
};

class DDG {
 public:
  DDG() = default;
  explicit DDG(std::string name) : name_(std::move(name)) {}

  /// Copies the graph, never the listener. Copy assignment makes this
  /// graph equal to `other` while keeping the buffers it already owns (no
  /// allocation when its tables are large enough) and its own listener.
  DDG(const DDG& other) = default;
  DDG& operator=(const DDG& other) = default;
  DDG(DDG&& other) noexcept;
  DDG& operator=(DDG&& other) noexcept;
  ~DDG() = default;

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Pre-sizes the tables for `slots` nodes and `edges` edges in total (a
  /// parser knows the counts up front). Changes no content.
  void Reserve(int slots, int edges);

  NodeId AddNode(Node node);
  NodeId AddNode(OpClass op) {
    Node n;
    n.op = op;
    return AddNode(n);
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

  /// Removes the first out-edge of `src` matching (dst, kind, distance)
  /// exactly. Returns false if no such edge exists.
  bool RemoveEdge(NodeId src, NodeId dst, DepKind kind, int distance);

  /// Declares a loop-invariant live-in value; returns its id.
  std::int32_t AddInvariant();
  std::int32_t num_invariants() const { return num_invariants_; }

  /// Loop-invariant values (live-in for the whole loop) consumed by `id`,
  /// by invariant id, in the order they were added. Each referenced
  /// invariant pins one register in every bank from which it is read
  /// (paper Section 5.1). The span is invalidated by the next
  /// AddInvariantUse on this graph.
  std::span<const std::int32_t> InvariantUses(NodeId id) const {
    const NodeSlot& s = slots_[static_cast<size_t>(id)];
    return {inv_uses_.data() + s.inv_begin, static_cast<size_t>(s.inv_count)};
  }
  /// Appends `inv` to the invariant uses of `id`.
  void AddInvariantUse(NodeId id, std::int32_t inv);
  /// Removes the first use of `inv` by `id`; false if `id` does not use it.
  bool RemoveInvariantUse(NodeId id, std::int32_t inv);

  bool IsAlive(NodeId id) const { return node(id).alive; }
  const Node& node(NodeId id) const {
    return slots_[static_cast<size_t>(id)].node;
  }
  Node& node(NodeId id) { return slots_[static_cast<size_t>(id)].node; }

  /// Total slots including tombstones; iterate with IsAlive guard.
  NodeId NumSlots() const { return static_cast<NodeId>(slots_.size()); }
  /// Number of alive nodes.
  int NumNodes() const { return num_alive_; }
  /// Ids of all alive nodes, ascending.
  std::vector<NodeId> AliveNodes() const;

  /// Node and edge records the tables have room for: the largest graph and
  /// the most edge churn since this graph was built.
  std::size_t NodeCapacity() const { return slots_.capacity(); }
  std::size_t EdgeCapacity() const { return edges_.capacity(); }

  /// Alive edges entering / leaving `id`, in insertion order.
  EdgeView InEdges(NodeId id) const { return List(id, EdgeView::kIn, false); }
  EdgeView OutEdges(NodeId id) const {
    return List(id, EdgeView::kOut, false);
  }
  /// All alive edges, in insertion order.
  EdgeView Edges() const {
    return {edges_.data(), 0, static_cast<EdgeId>(edges_.size()),
            EdgeView::kTable, false};
  }
  int NumEdges() const { return num_edges_; }

  /// Dependence latency of an edge under the given latency table:
  /// Flow -> producer latency; Anti/Output/Mem -> 1.
  int EdgeLatency(const Edge& e, const LatencyTable& lat) const;

  /// Flow consumers of the value defined by `id` (alive flow out-edges).
  EdgeView FlowConsumers(NodeId id) const {
    return List(id, EdgeView::kOut, true);
  }
  /// Flow producers feeding `id`.
  EdgeView FlowProducers(NodeId id) const {
    return List(id, EdgeView::kIn, true);
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
  void SetListener(DdgListener* listener) { listener_.p = listener; }
  DdgListener* listener() const { return listener_.p; }

 private:
  /// A node with the heads of its two edge lists (indexed like
  /// EdgeRecord::next) and its run of the invariant-use pool.
  struct NodeSlot {
    Node node;
    EdgeId first[2] = {kNoEdge, kNoEdge};
    EdgeId last[2] = {kNoEdge, kNoEdge};
    std::int32_t inv_begin = 0;
    std::int32_t inv_count = 0;
  };
  /// A listener pointer that copies and moves as "none": a new graph
  /// starts without one and an assigned graph keeps its own.
  struct ListenerSlot {
    DdgListener* p = nullptr;
    ListenerSlot() = default;
    ListenerSlot(const ListenerSlot&) {}
    ListenerSlot& operator=(const ListenerSlot&) { return *this; }
  };

  EdgeView List(NodeId id, EdgeView::Walk walk, bool flow_only) const {
    return {edges_.data(), slots_[static_cast<size_t>(id)].first[walk],
            kNoEdge, walk, flow_only};
  }
  /// Unlinks an alive record from both of its lists and marks it dead.
  void Unlink(EdgeId id);
  void NotifyFlowEdgeAdded(const Edge& e) {
    if (listener_.p != nullptr) listener_.p->OnFlowEdgeAdded(e);
  }
  void NotifyFlowEdgeRemoved(const Edge& e) {
    if (listener_.p != nullptr) listener_.p->OnFlowEdgeRemoved(e);
  }

  std::string name_;
  std::vector<NodeSlot> slots_;
  std::vector<EdgeRecord> edges_;
  /// Every node's invariant uses, one contiguous run per node (see
  /// NodeSlot); a run that grows moves to the end.
  std::vector<std::int32_t> inv_uses_;
  std::int32_t num_invariants_ = 0;
  int num_alive_ = 0;
  int num_edges_ = 0;
  ListenerSlot listener_;
};

}  // namespace hcrf
