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
  ++rewrites_;
  const RFConfig& rf = st_.m.rf;
  const bool consumer_scheduled = st_.sched->IsScheduled(e.dst);

  // Assemble the chain: reuse scheduled chain nodes where legal, create the
  // rest (unscheduled for now). Loop-carried distances ride the hop into
  // the capacious bank (shared bank for hierarchical organizations, the
  // producer's bank for bus moves); the final edge to the consumer is
  // always distance 0, so the consumer-side copy lives only briefly.
  NodeId last = e.src;
  NewHops to_schedule;
  if (rf.IsHierarchical()) {
    if (def_bank != kSharedBank) {
      NodeId s = FindReusable(last, OpClass::kStoreR, def_bank, 0, e);
      if (s == kNoNode) {
        Node n;
        n.op = OpClass::kStoreR;
        s = placer_.CreateNode(std::move(n),
                               st_.priority[static_cast<size_t>(last)] - 0.1);
        st_.g.AddFlow(last, s, 0);
        to_schedule.Add(s, def_bank, 0);
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
        st_.g.AddFlow(last, l, e.distance);
        to_schedule.Add(l, read_bank, 0);
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
    st_.g.AddFlow(e.src, mv, e.distance);
    to_schedule.Add(mv, read_bank, def_bank);
  }
  last = mv;
  return RedirectEdge(e, last, 0, to_schedule, consumer_scheduled);
}

bool CommRewriter::RedirectEdge(const Edge& e, NodeId last,
                                int final_distance, NewHops& to_schedule,
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
  if (st_.IsCommChainNode(e.src)) gc_candidates_.push_back(e.src);
  st_.g.AddEdge(last, e.dst, DepKind::kFlow, final_distance);
  fixes_.push_back(
      CommFix{e, Edge{last, e.dst, DepKind::kFlow, final_distance}});

  // Schedule the new chain nodes. When the consumer anchors the chain
  // (consumer-side fix), place the consumer-adjacent node first so each
  // node sees its constraint; otherwise producer-adjacent first.
  if (consumer_scheduled) {
    std::reverse(to_schedule.hops, to_schedule.hops + to_schedule.count);
  }
  for (int i = 0; i < to_schedule.count; ++i) {
    const NewHops::Hop& hop = to_schedule.hops[i];
    if (!st_.g.IsAlive(hop.node)) return true;  // chain dissolved by a cascade
    if (st_.sched->IsScheduled(hop.node)) continue;
    if (!placer_.PlaceNode(hop.node, hop.cluster, hop.src_cluster)) {
      return false;
    }
  }
  instr_.ChainBuilt(e.dst, st_.ii());
  return true;
}

template <class BanksOf>
bool CommRewriter::FixMismatched(EdgeView edges, std::vector<Edge>& rest,
                                 BanksOf banks_of) {
  // Walk the live list up to the first edge that needs a chain; FixEdge
  // rewrites the lists, so from there on walk a copy of the remaining
  // edges (the same edges the list held when the walk reached them).
  auto it = edges.begin();
  while (it != edges.end() && !banks_of(*it).mismatched) ++it;
  if (it == edges.end()) return true;
  rest.assign(it, edges.end());
  for (const Edge& e : rest) {
    const EdgeBanks b = banks_of(e);
    if (b.mismatched && !FixEdge(e, b.def, b.read)) return false;
  }
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
    const BankId read = sched::ReadBank(op_u, cluster, rf);
    const bool ok = FixMismatched(
        st_.g.InEdges(u), in_scratch_, [&](const Edge& e) -> EdgeBanks {
          if (e.kind != DepKind::kFlow || !st_.sched->IsScheduled(e.src)) {
            return {};
          }
          const BankId def = sched::DefBank(st_.g.node(e.src).op,
                                            st_.sched->ClusterOf(e.src), rf);
          return {def != read, def, read};
        });
    if (!ok) return false;
  }

  // Consumer side: consumers already scheduled.
  if (!DefinesValue(op_u)) return true;
  const BankId def = sched::DefBank(op_u, cluster, rf);
  return FixMismatched(
      st_.g.OutEdges(u), out_scratch_, [&](const Edge& e) -> EdgeBanks {
        if (e.kind != DepKind::kFlow || !st_.sched->IsScheduled(e.dst)) {
          return {};
        }
        const OpClass op_c = st_.g.node(e.dst).op;
        BankId read;
        if (op_c == OpClass::kMove) {
          // The move will read whatever bank we define in; it only matters
          // that it is a cluster bank (moves cannot read the shared bank).
          if (def != kSharedBank) return {};
          read = st_.sched->ClusterOf(e.dst);
        } else {
          read = sched::ReadBank(op_c, st_.sched->ClusterOf(e.dst), rf);
        }
        return {def != read, def, read};
      });
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
    // The chain's last node lost that consumer.
    gc_candidates_.push_back(f.final_edge.src);
    instr_.ChainUndone(f.original.dst, st_.ii());
    fixes_.erase(fixes_.begin() + static_cast<long>(i));
  }
}

void CommRewriter::GarbageCollectComm() {
  // Only chain nodes are ever collected. FixEdge gives each chain node a
  // consumer before anything is placed, so one is left without a flow
  // consumer only when RedirectEdge or UndoFixesTouching takes one away
  // (they queue it) or when this sweep removes its consumer (queued
  // below). The result is order-independent (removing a node only
  // un-feeds its producers).
  while (!gc_candidates_.empty()) {
    const NodeId v = gc_candidates_.back();
    gc_candidates_.pop_back();
    if (!st_.g.IsAlive(v) || !st_.g.FlowConsumers(v).empty()) continue;
    for (const Edge& e : st_.g.FlowProducers(v)) {
      if (st_.IsCommChainNode(e.src)) gc_candidates_.push_back(e.src);
    }
    st_.Unplace(v);
    st_.MarkScheduled(v);  // drop from the unscheduled list before removal
    st_.g.RemoveNode(v);
    // A fix whose original edge touches v can never be undone: its
    // restored edge would reach a dead node.
    std::erase_if(fixes_, [v](const CommFix& f) {
      return f.original.src == v || f.original.dst == v;
    });
  }
}

void CommRewriter::ConsumersThrough(NodeId victim,
                                    std::vector<NodeId>& out) const {
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
      const EdgeView producers = st_.g.FlowProducers(c);
      if (producers.empty()) break;
      c = producers.front().src;
    }
    if (through) out.push_back(f.original.dst);
  }
}

}  // namespace hcrf::core
