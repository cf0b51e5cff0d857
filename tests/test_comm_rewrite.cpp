// Unit tests of the communication-rewrite module in isolation: edge
// splitting into StoreR/LoadR/Move chains, chain reuse, and the
// split->restore round-trip that ejection relies on. The module is driven
// through a minimal NodePlacer, proving it does not depend on the engine
// driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/comm_rewrite.h"
#include "core/instrument.h"
#include "core/sched_state.h"
#include "sched/mrt.h"

namespace hcrf::core {
namespace {

using sched::BankId;

/// Greedy placer: first feasible cycle in the dependence window. No
/// force-and-eject, no budget -- just enough to schedule chain nodes.
class TestPlacer : public NodePlacer {
 public:
  explicit TestPlacer(SchedState& st) : st_(st) {}

  NodeId CreateNode(Node n, double priority) override {
    n.inserted = true;
    const NodeId id = st_.g.AddNode(std::move(n));
    st_.GrowTo(id);
    st_.priority[static_cast<size_t>(id)] = priority;
    st_.MarkUnscheduled(id);
    return id;
  }

  bool PlaceNode(NodeId u, int cluster, int src_cluster) override {
    const auto needs =
        sched::ResourceNeeds(st_.g.node(u).op, cluster, src_cluster, st_.m);
    const Window w = st_.ComputeWindow(u);
    const sched::ScanDir dir = w.Direction(/*late_biased=*/false);
    const ScanRange range = w.Range(st_.ii(), dir);
    const int t = st_.mrt->FindFirstSlot(needs, range.lo, range.hi, dir);
    if (t == sched::ModuloReservationTable::kNoSlot) return false;
    st_.Place(u, needs, {t, cluster, src_cluster, true});
    return true;
  }

 private:
  SchedState& st_;
};

struct Rig {
  explicit Rig(const char* rf, const DDG& g, int ii)
      : m(MachineConfig::WithRF(RFConfig::Parse(rf))),
        st(m),
        placer(st),
        rewriter(st, placer, instr) {
    st.Reset(g, {}, ii);
    // Simple priorities: earlier ids first.
    for (NodeId v = 0; v < st.g.NumSlots(); ++v) {
      st.priority[static_cast<size_t>(v)] =
          static_cast<double>(st.g.NumSlots() - v);
      st.MarkUnscheduled(v);
    }
  }

  bool HasEdge(NodeId src, NodeId dst) const {
    const EdgeView in = st.g.InEdges(dst);
    return std::any_of(in.begin(), in.end(),
                       [&](const Edge& e) { return e.src == src; });
  }

  std::vector<Edge> InEdges(NodeId v) const {
    return {st.g.InEdges(v).begin(), st.g.InEdges(v).end()};
  }

  MachineConfig m;
  SchedState st;
  Instrumentation instr;
  TestPlacer placer;
  CommRewriter rewriter;
};

DDG LoadFeedsAdd() {
  DDG g("load_add");
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, 0, 8};
  const NodeId l = g.AddNode(std::move(ld));
  const NodeId a = g.AddNode(OpClass::kFAdd);
  g.AddFlow(l, a, 0);
  return g;
}

TEST(CommRewrite, HierarchicalEdgeSplitInsertsLoadR) {
  const DDG g = LoadFeedsAdd();
  Rig rig("1C32S64/4-2", g, /*ii=*/4);
  const NodeId load = 0, add = 1;

  ASSERT_TRUE(rig.placer.PlaceNode(load, 0, 0));
  // The load defines in the shared bank; the add reads its cluster bank.
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(add, /*cluster=*/0));

  ASSERT_EQ(rig.rewriter.fixes().size(), 1u);
  EXPECT_FALSE(rig.HasEdge(load, add)) << "direct edge must be replaced";
  const NodeId loadr = rig.rewriter.fixes()[0].final_edge.src;
  EXPECT_EQ(rig.st.g.node(loadr).op, OpClass::kLoadR);
  EXPECT_TRUE(rig.st.g.node(loadr).inserted);
  EXPECT_TRUE(rig.HasEdge(load, loadr));
  EXPECT_TRUE(rig.HasEdge(loadr, add));
  EXPECT_TRUE(rig.st.sched->IsScheduled(loadr));
  EXPECT_EQ(rig.st.sched->ClusterOf(loadr), 0);
  EXPECT_EQ(rig.instr.stats().chains_built, 1);
}

TEST(CommRewrite, UndoRestoresOriginalEdgeAndCollectsChain) {
  const DDG g = LoadFeedsAdd();
  Rig rig("1C32S64/4-2", g, 4);
  const NodeId load = 0, add = 1;
  ASSERT_TRUE(rig.placer.PlaceNode(load, 0, 0));
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(add, 0));
  const NodeId loadr = rig.rewriter.fixes()[0].final_edge.src;

  // Eject the consumer: its fixes unwind and the chain node, now
  // consumer-less, is garbage collected.
  rig.st.Unplace(add);
  rig.st.MarkUnscheduled(add);
  rig.rewriter.UndoFixesTouching(add);
  rig.rewriter.GarbageCollectComm();

  EXPECT_TRUE(rig.rewriter.fixes().empty());
  EXPECT_TRUE(rig.HasEdge(load, add)) << "direct edge must be restored";
  EXPECT_FALSE(rig.st.g.IsAlive(loadr)) << "orphan chain node must die";
  EXPECT_FALSE(rig.st.mrt->IsPlaced(loadr));
  EXPECT_EQ(rig.instr.stats().chains_undone, 1);
  // Round trip: original structure back (1 flow edge into the add).
  ASSERT_EQ(rig.InEdges(add).size(), 1u);
  EXPECT_EQ(rig.InEdges(add)[0].src, load);
  EXPECT_EQ(rig.InEdges(add)[0].distance, 0);
  EXPECT_EQ(rig.InEdges(add)[0].kind, DepKind::kFlow);
}

TEST(CommRewrite, PureClusteredMoveRoundTrip) {
  DDG g("cross");
  const NodeId a = g.AddNode(OpClass::kFAdd);
  const NodeId b = g.AddNode(OpClass::kFMul);
  g.AddFlow(a, b, 1);  // loop-carried: the distance rides into the move

  Rig rig("2C32/1-1", g, 4);
  ASSERT_TRUE(rig.placer.PlaceNode(a, /*cluster=*/0, 0));
  // Scheduling b on cluster 1 crosses banks: a Move must bridge it.
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(b, /*cluster=*/1));

  ASSERT_EQ(rig.rewriter.fixes().size(), 1u);
  const NodeId mv = rig.rewriter.fixes()[0].final_edge.src;
  EXPECT_EQ(rig.st.g.node(mv).op, OpClass::kMove);
  EXPECT_EQ(rig.st.sched->ClusterOf(mv), 1);
  EXPECT_EQ(rig.st.sched->Of(mv).src_cluster, 0);
  // The carried distance moved onto the producer->move hop; the final edge
  // is intra-iteration.
  const auto& fix = rig.rewriter.fixes()[0];
  EXPECT_EQ(fix.final_edge.distance, 0);
  ASSERT_EQ(rig.InEdges(mv).size(), 1u);
  EXPECT_EQ(rig.InEdges(mv)[0].distance, 1);

  // Ejecting the producer also unwinds the fix (its edge touches `a`).
  rig.st.Unplace(a);
  rig.st.MarkUnscheduled(a);
  rig.rewriter.UndoFixesTouching(a);
  rig.rewriter.GarbageCollectComm();
  EXPECT_TRUE(rig.rewriter.fixes().empty());
  EXPECT_FALSE(rig.st.g.IsAlive(mv));
  ASSERT_EQ(rig.InEdges(b).size(), 1u);
  EXPECT_EQ(rig.InEdges(b)[0].src, a);
  EXPECT_EQ(rig.InEdges(b)[0].distance, 1);
}

TEST(CommRewrite, SecondConsumerReusesScheduledChainNode) {
  DDG g("fanout");
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, 0, 8};
  const NodeId l = g.AddNode(std::move(ld));
  const NodeId c1 = g.AddNode(OpClass::kFAdd);
  const NodeId c2 = g.AddNode(OpClass::kFMul);
  g.AddFlow(l, c1, 0);
  g.AddFlow(l, c2, 0);

  Rig rig("1C32S64/4-2", g, 4);
  ASSERT_TRUE(rig.placer.PlaceNode(l, 0, 0));
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(c1, 0));
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(c2, 0));

  ASSERT_EQ(rig.rewriter.fixes().size(), 2u);
  // Both consumers route through the same LoadR.
  EXPECT_EQ(rig.rewriter.fixes()[0].final_edge.src,
            rig.rewriter.fixes()[1].final_edge.src);
  int loadrs = 0;
  for (NodeId v = 0; v < rig.st.g.NumSlots(); ++v) {
    if (rig.st.g.IsAlive(v) && rig.st.g.node(v).op == OpClass::kLoadR) {
      ++loadrs;
    }
  }
  EXPECT_EQ(loadrs, 1);

  // Undoing one consumer keeps the chain alive for the other; undoing both
  // collects it.
  rig.rewriter.UndoFixesTouching(c1);
  rig.rewriter.GarbageCollectComm();
  ASSERT_EQ(rig.rewriter.fixes().size(), 1u);
  const NodeId loadr = rig.rewriter.fixes()[0].final_edge.src;
  EXPECT_TRUE(rig.st.g.IsAlive(loadr));
  rig.rewriter.UndoFixesTouching(c2);
  rig.rewriter.GarbageCollectComm();
  EXPECT_FALSE(rig.st.g.IsAlive(loadr));
  EXPECT_TRUE(rig.HasEdge(l, c1));
  EXPECT_TRUE(rig.HasEdge(l, c2));
}

TEST(CommRewrite, SharedBankConsumerNeedsNoChain) {
  // load -> store on a hierarchical RF: both ends live in the shared bank.
  DDG g("copy");
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, 0, 8};
  const NodeId l = g.AddNode(std::move(ld));
  Node st;
  st.op = OpClass::kStore;
  st.mem = MemRef{1, 0, 8};
  const NodeId s = g.AddNode(std::move(st));
  g.AddFlow(l, s, 0);

  Rig rig("4C16S64/2-1", g, 4);
  ASSERT_TRUE(rig.placer.PlaceNode(l, 0, 0));
  ASSERT_TRUE(rig.rewriter.EnsureCommunication(s, 2));
  EXPECT_TRUE(rig.rewriter.fixes().empty());
  EXPECT_TRUE(rig.HasEdge(l, s));
}

}  // namespace
}  // namespace hcrf::core
