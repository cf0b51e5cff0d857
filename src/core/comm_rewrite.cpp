#include "core/comm_rewrite.h"

#include <algorithm>

#include "core/check.h"

namespace hcrf::core {

using sched::BankId;
using sched::kSharedBank;

// Reuse requires the candidate's placement to be compatible with the new
// consumer: when the consumer is already scheduled, the candidate must be
// able to feed it in the consumer's own iteration (the final chain edge
// always has distance 0).
bool CommRewriter::ReuseFeasible(NodeId candidate,
                                 const Edge& consumer_edge) const {
  if (!st_.sched->IsScheduled(consumer_edge.dst)) return true;
  const int lat =
      st_.overrides.For(candidate, st_.m.lat.Of(st_.g.node(candidate).op));
  return st_.sched->CycleOf(candidate) + lat <=
         st_.sched->CycleOf(consumer_edge.dst);
}

// Finds a scheduled chain node of kind `op` on `cluster` fed by `producer`
// over an edge with the given distance.
NodeId CommRewriter::FindReusable(NodeId producer, OpClass op, int cluster,
                                  int distance,
                                  const Edge& consumer_edge) const {
  for (const Edge& e : st_.g.FlowConsumers(producer)) {
    if (e.distance != distance) continue;
    const Node& n = st_.g.node(e.dst);
    if (n.op == op && n.inserted && !n.spill &&
        st_.sched->IsScheduled(e.dst) &&
        st_.sched->ClusterOf(e.dst) == cluster &&
        ReuseFeasible(e.dst, consumer_edge)) {
      return e.dst;
    }
  }
  return kNoNode;
}

bool CommRewriter::FixEdge(const Edge& e, BankId def_bank, BankId read_bank) {
  const RFConfig& rf = st_.m.rf;
  const bool consumer_scheduled = st_.sched->IsScheduled(e.dst);

  // Assemble the chain: reuse scheduled chain nodes where legal, create the
  // rest (unscheduled for now). Loop-carried distances ride the hop into
  // the capacious bank (shared bank for hierarchical organizations, the
  // producer's bank for bus moves); the final edge to the consumer is
  // always distance 0, so the consumer-side copy lives only briefly.
  NodeId last = e.src;
  std::vector<std::pair<NodeId, std::pair<int, int>>> to_schedule;
  if (rf.IsHierarchical()) {
    if (def_bank != kSharedBank) {
      NodeId s = FindReusable(last, OpClass::kStoreR, def_bank, 0, e);
      if (s == kNoNode) {
        Node n;
        n.op = OpClass::kStoreR;
        s = placer_.CreateNode(std::move(n),
                               st_.priority[static_cast<size_t>(last)] - 0.1);
        chain_nodes_.push_back(s);
        st_.g.AddFlow(last, s, 0);
        to_schedule.push_back({s, {def_bank, 0}});
      }
      last = s;
    }
    if (read_bank != kSharedBank) {
      // The shared-bank copy carries the loop distance; the LoadR's value
      // is read in the consumer's own iteration.
      NodeId l = FindReusable(last, OpClass::kLoadR, read_bank, e.distance, e);
      if (l == kNoNode) {
        Node n;
        n.op = OpClass::kLoadR;
        l = placer_.CreateNode(std::move(n),
                               st_.priority[static_cast<size_t>(e.src)] - 0.2);
        chain_nodes_.push_back(l);
        st_.g.AddFlow(last, l, e.distance);
        to_schedule.push_back({l, {read_bank, 0}});
      }
      last = l;
      return RedirectEdge(e, last, 0, to_schedule, consumer_scheduled);
    }
    // The consumer reads the shared bank directly (Store): the carried
    // distance stays on the final edge; the shared bank absorbs it.
    return RedirectEdge(e, last, e.distance, to_schedule, consumer_scheduled);
  }

  // Pure clustered: a Move over the buses; the producer's bank holds the
  // value across the carried distance.
  NodeId mv = FindReusable(e.src, OpClass::kMove, read_bank, e.distance, e);
  if (mv == kNoNode) {
    Node n;
    n.op = OpClass::kMove;
    mv = placer_.CreateNode(std::move(n),
                            st_.priority[static_cast<size_t>(e.src)] - 0.1);
    chain_nodes_.push_back(mv);
    st_.g.AddFlow(e.src, mv, e.distance);
    to_schedule.push_back({mv, {read_bank, def_bank}});
  }
  last = mv;
  return RedirectEdge(e, last, 0, to_schedule, consumer_scheduled);
}

bool CommRewriter::RedirectEdge(
    const Edge& e, NodeId last, int final_distance,
    std::vector<std::pair<NodeId, std::pair<int, int>>>& to_schedule,
    bool consumer_scheduled) {
  // Redirect the consumer edge through the chain and record the fix before
  // scheduling: ejection cascades triggered while placing chain nodes must
  // be able to unwind it.
  const bool removed = st_.g.RemoveEdge(e.src, e.dst, e.kind, e.distance);
  HCRF_CHECK(removed,
             "comm rewrite lost the direct edge %d->%d (kind %s, distance "
             "%d) it was about to replace; graph '%s', II=%d",
             e.src, e.dst, std::string(ToString(e.kind)).c_str(), e.distance,
             st_.g.name().c_str(), st_.ii());
  st_.g.AddEdge(last, e.dst, DepKind::kFlow, final_distance);
  fixes_.push_back(
      CommFix{e, Edge{last, e.dst, DepKind::kFlow, final_distance}});

  // Schedule the new chain nodes. When the consumer anchors the chain
  // (consumer-side fix), place the consumer-adjacent node first so each
  // node sees its constraint; otherwise producer-adjacent first.
  if (consumer_scheduled) {
    std::reverse(to_schedule.begin(), to_schedule.end());
  }
  for (const auto& [node, where] : to_schedule) {
    if (!st_.g.IsAlive(node)) return true;  // chain dissolved by a cascade
    if (st_.sched->IsScheduled(node)) continue;
    if (!placer_.PlaceNode(node, where.first, where.second)) return false;
  }
  instr_.ChainBuilt(e.dst, st_.ii());
  return true;
}

bool CommRewriter::EnsureCommunication(NodeId u, int cluster) {
  const RFConfig& rf = st_.m.rf;
  if (rf.IsMonolithic()) return true;
  // NOTE: FixEdge mutates the graph (node vector may reallocate), so this
  // function must not hold Node references across calls; ops are copied.
  const OpClass op_u = st_.g.node(u).op;

  // Operand side: producers already scheduled.
  if (op_u != OpClass::kMove) {  // moves read the producer bank directly
    in_scratch_.assign(st_.g.InEdges(u).begin(), st_.g.InEdges(u).end());
    for (const Edge& e : in_scratch_) {
      if (e.kind != DepKind::kFlow || !st_.sched->IsScheduled(e.src)) continue;
      const BankId def = sched::DefBank(st_.g.node(e.src).op,
                                        st_.sched->ClusterOf(e.src), rf);
      const BankId read = sched::ReadBank(op_u, cluster, rf);
      if (def == read) continue;
      if (!FixEdge(e, def, read)) return false;
    }
  }

  // Consumer side: consumers already scheduled.
  if (!DefinesValue(op_u)) return true;
  const BankId def = sched::DefBank(op_u, cluster, rf);
  out_scratch_.assign(st_.g.OutEdges(u).begin(), st_.g.OutEdges(u).end());
  for (const Edge& e : out_scratch_) {
    if (e.kind != DepKind::kFlow || !st_.sched->IsScheduled(e.dst)) continue;
    const OpClass op_c = st_.g.node(e.dst).op;
    BankId read;
    if (op_c == OpClass::kMove) {
      // The move will read whatever bank we define in; it only matters that
      // it is a cluster bank (moves cannot read the shared bank).
      if (def != kSharedBank) continue;
      read = st_.sched->ClusterOf(e.dst);
    } else {
      read = sched::ReadBank(op_c, st_.sched->ClusterOf(e.dst), rf);
    }
    if (def == read) continue;
    if (!FixEdge(e, def, read)) return false;
  }
  return true;
}

void CommRewriter::UndoFixesTouching(NodeId v) {
  for (size_t i = fixes_.size(); i-- > 0;) {
    const CommFix& f = fixes_[i];
    if (f.original.src != v && f.original.dst != v) continue;
    // Remove the chain edge at the consumer and restore the direct edge.
    st_.g.RemoveEdge(f.final_edge.src, f.final_edge.dst, f.final_edge.kind,
                     f.final_edge.distance);
    // Restoring an edge to a dead endpoint aborts in DDG::AddEdge's check.
    st_.g.AddEdge(f.original.src, f.original.dst, f.original.kind,
                  f.original.distance);
    instr_.ChainUndone(f.original.dst, st_.ii());
    fixes_.erase(fixes_.begin() + static_cast<long>(i));
  }
}

void CommRewriter::GarbageCollectComm() {
  // Only chain nodes are ever collected, so scanning chain_nodes_ (short,
  // ascending id) visits the same candidates as a full slot scan; the
  // fixpoint is order-independent (removing a node only un-feeds its
  // producers, picked up by the next pass).
  bool changed = true;
  bool any_dead = false;
  while (changed) {
    changed = false;
    for (NodeId v : chain_nodes_) {
      if (!st_.g.IsAlive(v)) {
        any_dead = true;
        continue;
      }
      // Spill copies never enter chain_nodes_, so IsCommChainNode holds
      // for every alive entry. Allocation-free consumer probe
      // (FlowConsumers would materialize a vector).
      bool has_consumer = false;
      for (const Edge& e : st_.g.OutEdges(v)) {
        if (e.kind == DepKind::kFlow) {
          has_consumer = true;
          break;
        }
      }
      if (has_consumer) continue;
      st_.Unplace(v);
      st_.MarkScheduled(v);  // drop from the unscheduled list before removal
      st_.g.RemoveNode(v);
      changed = true;
      any_dead = true;
    }
  }
  if (any_dead) {
    std::erase_if(chain_nodes_,
                  [this](NodeId v) { return !st_.g.IsAlive(v); });
  }
}

std::vector<NodeId> CommRewriter::ConsumersThrough(NodeId victim) const {
  std::vector<NodeId> consumers;
  for (const CommFix& f : fixes_) {
    // Walk the chain backwards from the consumer-side edge.
    NodeId c = f.final_edge.src;
    bool through = false;
    while (true) {
      if (c == victim) {
        through = true;
        break;
      }
      if (!st_.IsCommChainNode(c)) break;
      const auto producers = st_.g.FlowProducers(c);
      if (producers.empty()) break;
      c = producers.front().src;
    }
    if (through) consumers.push_back(f.original.dst);
  }
  return consumers;
}

}  // namespace hcrf::core
