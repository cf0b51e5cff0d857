// Communication-rewrite module: splits flow dependences that cross register
// banks into chains of communication operations, and restores them when
// ejection unwinds the work.
//
// For hierarchical organizations a mismatched edge producer->consumer
// becomes producer -> [StoreR] -> [LoadR] -> consumer (each hop only when
// the corresponding side is not already in the shared bank); for pure
// clustered organizations it becomes producer -> Move -> consumer. Chain
// nodes are reused across consumers on the same cluster when their
// placement is compatible. Every rewrite is recorded as a CommFix so that
// ejecting either endpoint can remove the chain edge and restore the
// original dependence exactly (the round-trip property tested in
// tests/test_comm_rewrite.cpp).
//
// The module owns no placement logic: creating and scheduling chain nodes
// goes through the NodePlacer interface, implemented by the engine driver
// (which charges budget and may force-and-eject).
#pragma once

#include <vector>

#include "core/instrument.h"
#include "core/sched_state.h"
#include "ddg/ddg.h"
#include "sched/banks.h"

namespace hcrf::core {

/// Record of one rewritten flow dependence.
struct CommFix {
  Edge original;    ///< The removed direct edge.
  Edge final_edge;  ///< The chain edge that replaced it at the consumer.
};

/// Node creation + placement services the rewriter (and the spill engine)
/// obtain from the engine driver.
class NodePlacer {
 public:
  virtual ~NodePlacer() = default;
  /// Creates a scheduler-inserted node: registers it with the priority list
  /// and grants the iterative algorithm's per-node budget.
  virtual NodeId CreateNode(Node n, double priority) = 0;
  /// Schedules `node` on `cluster` (window scan; force-and-eject in
  /// iterative mode). Returns false when no placement was possible.
  virtual bool PlaceNode(NodeId node, int cluster, int src_cluster) = 0;
};

class CommRewriter {
 public:
  CommRewriter(SchedState& st, NodePlacer& placer, Instrumentation& instr)
      : st_(st), placer_(placer), instr_(instr) {}

  /// Clears the fix records (fresh II attempt).
  void Reset() {
    fixes_.clear();
    chain_nodes_.clear();
  }

  const std::vector<CommFix>& fixes() const { return fixes_; }

  /// Inserts and schedules communication chains for mismatched flow edges
  /// between `u` (about to be placed on `cluster`) and its scheduled
  /// neighbours. Returns false if a chain could not be scheduled, in
  /// either mode; the II attempt then ends with kComm.
  bool EnsureCommunication(NodeId u, int cluster);

  /// Unwinds every fix whose original edge touches `v`: removes the chain
  /// edge at the consumer and restores the direct edge.
  void UndoFixesTouching(NodeId v);

  /// Removes chain nodes that lost all their consumers (after undos).
  void GarbageCollectComm();

  /// Appends to `out` the consumers whose communication chain runs through
  /// the chain node `victim`; ejecting the chain node means
  /// re-communicating them. The caller owns the buffer because the
  /// ejection cascade re-enters this while it walks an earlier list.
  void ConsumersThrough(NodeId victim, std::vector<NodeId>& out) const;

 private:
  /// The chain nodes one FixEdge created and still has to place, with
  /// their (cluster, src_cluster): a chain has at most two hops
  /// (StoreR -> LoadR, or one Move).
  struct NewHops {
    struct Hop {
      NodeId node;
      int cluster;
      int src_cluster;
    };
    Hop hops[2];
    int count = 0;

    void Add(NodeId node, int cluster, int src_cluster) {
      hops[count++] = Hop{node, cluster, src_cluster};
    }
  };

  bool FixEdge(const Edge& e, sched::BankId def_bank, sched::BankId read_bank);
  bool RedirectEdge(const Edge& e, NodeId last, int final_distance,
                    NewHops& to_schedule, bool consumer_scheduled);
  bool ReuseFeasible(NodeId candidate, const Edge& consumer_edge) const;
  NodeId FindReusable(NodeId producer, OpClass op, int cluster, int distance,
                      const Edge& consumer_edge) const;

  SchedState& st_;
  NodePlacer& placer_;
  Instrumentation& instr_;
  std::vector<CommFix> fixes_;
  /// Every chain node this rewriter created, ascending id (tombstoned ids
  /// are pruned lazily). Only chain nodes are ever garbage-collected, so
  /// GarbageCollectComm scans this short list instead of every graph slot
  /// once per ejection.
  std::vector<NodeId> chain_nodes_;
  /// Edge snapshots of EnsureCommunication (FixEdge mutates the adjacency
  /// lists it iterates). Members, not locals: EnsureCommunication runs once
  /// per placement and is non-reentrant, so reusing the buffers keeps the
  /// hot loop allocation-free.
  std::vector<Edge> in_scratch_;
  std::vector<Edge> out_scratch_;
};

}  // namespace hcrf::core
