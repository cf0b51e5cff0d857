// Unit tests for the dependence graph and MII computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <vector>

#include "ddg/ddg.h"
#include "ddg/mii.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

TEST(DDG, AddNodesAndEdges) {
  DDG g("t");
  const NodeId a = g.AddNode(OpClass::kLoad);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 0);
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(std::ranges::distance(g.OutEdges(a)), 1);
  EXPECT_EQ(std::ranges::distance(g.InEdges(b)), 1);
  std::string why;
  EXPECT_TRUE(g.Check(&why)) << why;
}

TEST(DDG, RejectsBadEdges) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  EXPECT_THROW(g.AddEdge(a, a, DepKind::kFlow, 0), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(a, a, DepKind::kFlow, -1), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(a, 99, DepKind::kFlow, 0), std::out_of_range);
  // Distance > 0 self edges are recurrences and are fine.
  g.AddEdge(a, a, DepKind::kFlow, 1);
  EXPECT_TRUE(g.Check());
}

TEST(DDG, RemoveNodeProtectsOriginals) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  EXPECT_THROW(g.RemoveNode(a), std::logic_error);
  Node inserted;
  inserted.op = OpClass::kLoadR;
  inserted.inserted = true;
  const NodeId b = g.AddNode(std::move(inserted));
  g.AddFlow(a, b, 0);
  g.RemoveNode(b);
  EXPECT_FALSE(g.IsAlive(b));
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_TRUE(g.OutEdges(a).empty());
  EXPECT_TRUE(g.Check());
}

// Removing an inserted node with a self loop and an in-edge detaches both:
// the self loop sits in the node's own in-list beside the peer's edge.
TEST(DDG, RemoveNodeWithSelfLoopDetachesItsInEdges) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  Node inserted;
  inserted.op = OpClass::kLoadR;
  inserted.inserted = true;
  const NodeId b = g.AddNode(inserted);
  g.AddFlow(b, b, 1);
  g.AddFlow(a, b, 0);
  g.RemoveNode(b);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_TRUE(g.OutEdges(a).empty());
  EXPECT_TRUE(g.Edges().empty());
  std::string why;
  EXPECT_TRUE(g.Check(&why)) << why;
}

TEST(DDG, RemoveEdge) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kLoad);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 0);
  g.AddFlow(a, b, 1);
  EXPECT_TRUE(g.RemoveEdge(a, b, DepKind::kFlow, 1));
  EXPECT_FALSE(g.RemoveEdge(a, b, DepKind::kFlow, 1));  // already gone
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.OutEdges(a).front().distance, 0);
  EXPECT_TRUE(g.Check());
}

std::vector<Edge> Collect(const EdgeView& view) {
  return {view.begin(), view.end()};
}

std::vector<NodeId> Sources(const EdgeView& view) {
  std::vector<NodeId> srcs;
  for (const Edge& e : view) srcs.push_back(e.src);
  return srcs;
}

// Edges() lists the alive edges in insertion order, whatever their source,
// and removal keeps the order of the rest in all three walks.
TEST(DDG, EdgesKeepInsertionOrder) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kLoad);
  const NodeId b = g.AddNode(OpClass::kLoad);
  const NodeId c = g.AddNode(OpClass::kFAdd);
  g.AddFlow(b, c, 0);
  g.AddFlow(a, c, 0);
  g.AddFlow(b, c, 1);
  g.AddFlow(a, c, 1);
  EXPECT_EQ(Sources(g.Edges()), (std::vector<NodeId>{b, a, b, a}));
  EXPECT_EQ(Sources(g.InEdges(c)), (std::vector<NodeId>{b, a, b, a}));
  ASSERT_TRUE(g.RemoveEdge(a, c, DepKind::kFlow, 0));
  EXPECT_EQ(Sources(g.Edges()), (std::vector<NodeId>{b, b, a}));
  EXPECT_EQ(Sources(g.InEdges(c)), (std::vector<NodeId>{b, b, a}));
  EXPECT_EQ(g.OutEdges(a).front().distance, 1);
  g.AddFlow(a, c, 2);
  EXPECT_EQ(Sources(g.InEdges(c)), (std::vector<NodeId>{b, b, a, a}));
  EXPECT_EQ(g.InEdges(c).begin()->distance, 0);
  EXPECT_TRUE(g.Check());
}

// Every observable of two graphs, compared: slot and edge counts, both
// adjacency orders of every slot, the materialized edge list, liveness and
// node contents, and the structural check.
void ExpectSameGraph(const DDG& a, const DDG& b) {
  ASSERT_EQ(a.NumSlots(), b.NumSlots());
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.num_invariants(), b.num_invariants());
  EXPECT_EQ(a.name(), b.name());
  auto same_edges = [](const EdgeView& xs, const EdgeView& ys) {
    const std::vector<Edge> x = Collect(xs);
    const std::vector<Edge> y = Collect(ys);
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].src != y[i].src || x[i].dst != y[i].dst ||
          x[i].kind != y[i].kind || x[i].distance != y[i].distance) {
        return false;
      }
    }
    return true;
  };
  for (NodeId v = 0; v < a.NumSlots(); ++v) {
    EXPECT_EQ(a.IsAlive(v), b.IsAlive(v)) << v;
    EXPECT_EQ(a.node(v).op, b.node(v).op) << v;
    EXPECT_EQ(a.node(v).inserted, b.node(v).inserted) << v;
    EXPECT_EQ(a.node(v).spill, b.node(v).spill) << v;
    EXPECT_TRUE(std::ranges::equal(a.InvariantUses(v), b.InvariantUses(v)))
        << v;
    EXPECT_EQ(a.node(v).mem.has_value(), b.node(v).mem.has_value()) << v;
    EXPECT_TRUE(same_edges(a.InEdges(v), b.InEdges(v))) << "in-edges of " << v;
    EXPECT_TRUE(same_edges(a.OutEdges(v), b.OutEdges(v)))
        << "out-edges of " << v;
  }
  EXPECT_TRUE(same_edges(a.Edges(), b.Edges()));
  std::string why_a;
  std::string why_b;
  EXPECT_TRUE(a.Check(&why_a)) << why_a;
  EXPECT_TRUE(b.Check(&why_b)) << why_b;
}

class CountingListener : public DdgListener {
 public:
  void OnFlowEdgeAdded(const Edge&) override { ++events; }
  void OnFlowEdgeRemoved(const Edge&) override { ++events; }
  void OnNodeRemoved(NodeId) override { ++events; }
  int events = 0;
};

// Grows `g` with inserted copies (some carrying an invariant use) wired to
// random nodes and extra edges between the loop's own nodes, then
// dismantles part of it: tombstones half the copies, drops some of the
// loop's edges. Deterministic in `seed`.
void GrowAndDismantle(DDG& g, NodeId original_slots, unsigned seed) {
  std::mt19937 rng(seed);
  const auto pick = [&]() {
    return static_cast<NodeId>(rng() % static_cast<unsigned>(original_slots));
  };
  std::vector<NodeId> inserted;
  for (int i = 0; i < 12; ++i) {
    Node n;
    n.op = i % 2 == 0 ? OpClass::kLoadR : OpClass::kStoreR;
    n.inserted = true;
    const NodeId id = g.AddNode(n);
    if (i % 3 == 0) g.AddInvariantUse(id, i);
    inserted.push_back(id);
    const NodeId peer = pick();
    if (DefinesValue(g.node(peer).op)) g.AddFlow(peer, id, 0);
    g.AddEdge(id, peer, DepKind::kMem, 1);
  }
  for (int i = 0; i < 8; ++i) {
    const NodeId a = pick();
    g.AddEdge(a, pick(), DepKind::kMem, 1 + i % 2);
  }
  for (size_t i = 0; i < inserted.size(); i += 2) g.RemoveNode(inserted[i]);
  for (NodeId v = 0; v < original_slots; v += 3) {
    if (g.OutEdges(v).empty()) continue;
    const Edge e = g.OutEdges(v).front();
    EXPECT_TRUE(g.RemoveEdge(e.src, e.dst, e.kind, e.distance));
  }
}

// The engine resets its working graph from the input loop at every II
// attempt by copy assignment, which keeps the tables' storage. A reset
// graph must be indistinguishable from a fresh copy, growing it again must
// match growing a fresh copy, and it keeps its own listener.
TEST(DDG, AssignmentMatchesAFreshCopy) {
  const workload::Suite kernel_suite = workload::KernelSuite();
  for (const workload::Loop& loop : kernel_suite.loops()) {
    SCOPED_TRACE(loop.ddg.name());
    const DDG& original = loop.ddg;
    DDG work;
    CountingListener listener;
    work.SetListener(&listener);
    work = original;
    for (unsigned round = 0; round < 3; ++round) {
      DDG grown(original);
      GrowAndDismantle(grown, original.NumSlots(), round);
      GrowAndDismantle(work, original.NumSlots(), round);
      ExpectSameGraph(work, grown);

      const int events = listener.events;
      work = original;
      EXPECT_EQ(listener.events, events);  // a reset notifies nothing
      EXPECT_EQ(work.listener(), &listener);
      EXPECT_GE(work.NodeCapacity(),
                static_cast<size_t>(original.NumSlots()) + 12);
      const DDG fresh(original);
      EXPECT_EQ(fresh.listener(), nullptr);
      ExpectSameGraph(work, fresh);
      DDG assigned;
      assigned = work;
      EXPECT_EQ(assigned.listener(), nullptr);
      ExpectSameGraph(assigned, original);
    }
  }
}

// A graph rebuilt by adding the alive edges of a grown and dismantled graph
// in Edges() order (what loading its .hcl dump does) has the same in- and
// out-list orders at every node.
TEST(DDG, ReaddingEdgesInTableOrderRebuildsBothAdjacencyOrders) {
  const workload::Suite kernel_suite = workload::KernelSuite();
  for (const workload::Loop& loop : kernel_suite.loops()) {
    SCOPED_TRACE(loop.ddg.name());
    DDG grown(loop.ddg);
    GrowAndDismantle(grown, loop.ddg.NumSlots(), 11);
    DDG rebuilt(grown.name());
    for (int i = 0; i < grown.num_invariants(); ++i) rebuilt.AddInvariant();
    for (NodeId v = 0; v < grown.NumSlots(); ++v) {
      rebuilt.AddNode(grown.node(v));
      for (std::int32_t inv : grown.InvariantUses(v)) {
        rebuilt.AddInvariantUse(v, inv);
      }
    }
    for (NodeId v = 0; v < grown.NumSlots(); ++v) {
      if (!grown.IsAlive(v)) rebuilt.RemoveNode(v, /*force=*/true);
    }
    for (const Edge& e : grown.Edges()) {
      rebuilt.AddEdge(e.src, e.dst, e.kind, e.distance);
    }
    ExpectSameGraph(rebuilt, grown);
  }
}

// FlowConsumers/FlowProducers are filtered views over the adjacency lists:
// on random graphs they list exactly the flow edges, in adjacency order.
TEST(DDG, FlowViewsMatchABruteForceFilter) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    DDG g;
    const int nodes = 2 + static_cast<int>(rng() % 40);
    for (int i = 0; i < nodes; ++i) {
      g.AddNode(rng() % 4 == 0 ? OpClass::kStore : OpClass::kFAdd);
    }
    const int edges = static_cast<int>(rng() % 120);
    for (int i = 0; i < edges; ++i) {
      const auto a = static_cast<NodeId>(rng() % static_cast<unsigned>(nodes));
      const auto b = static_cast<NodeId>(rng() % static_cast<unsigned>(nodes));
      const int distance = a == b ? 1 : static_cast<int>(rng() % 2);
      const auto kind = static_cast<DepKind>(rng() % 4);
      if (kind == DepKind::kFlow && !DefinesValue(g.node(a).op)) continue;
      g.AddEdge(a, b, kind, distance);
    }
    for (NodeId v = 0; v < g.NumSlots(); ++v) {
      std::vector<Edge> want_out;
      for (const Edge& e : g.OutEdges(v)) {
        if (e.kind == DepKind::kFlow) want_out.push_back(e);
      }
      std::vector<Edge> want_in;
      for (const Edge& e : g.InEdges(v)) {
        if (e.kind == DepKind::kFlow) want_in.push_back(e);
      }
      std::vector<Edge> got_out = Collect(g.FlowConsumers(v));
      std::vector<Edge> got_in;
      for (const Edge& e : g.FlowProducers(v)) got_in.push_back(e);
      ASSERT_EQ(got_out.size(), want_out.size()) << "trial " << trial;
      ASSERT_EQ(got_in.size(), want_in.size()) << "trial " << trial;
      for (size_t i = 0; i < want_out.size(); ++i) {
        EXPECT_EQ(got_out[i].dst, want_out[i].dst);
        EXPECT_EQ(got_out[i].distance, want_out[i].distance);
      }
      for (size_t i = 0; i < want_in.size(); ++i) {
        EXPECT_EQ(got_in[i].src, want_in[i].src);
        EXPECT_EQ(got_in[i].distance, want_in[i].distance);
      }
      EXPECT_EQ(g.FlowConsumers(v).empty(), want_out.empty());
      EXPECT_EQ(g.FlowProducers(v).empty(), want_in.empty());
      if (!want_in.empty()) {
        EXPECT_EQ(g.FlowProducers(v).front().src, want_in.front().src);
      }
    }
  }
}

TEST(MII, ResMIIByMemoryPorts) {
  // vadd: 2 loads + 1 store on 4 ports, 1 add on 8 FUs -> ResMII 1.
  const workload::Loop loop = workload::MakeVadd();
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(ResMII(loop.ddg, m), 1);

  // Narrow machine: 1 memory port -> ResMII 3.
  MachineConfig narrow = m;
  narrow.num_mem_ports = 1;
  EXPECT_EQ(ResMII(loop.ddg, narrow), 3);
}

TEST(MII, ResMIIUnpipelinedOccupancy) {
  // vdiv has one unpipelined division (latency 17) on 8 FUs:
  // occupancy 17 -> ceil(17/8) = 3.
  const workload::Loop loop = workload::MakeVdiv();
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(ResMII(loop.ddg, m), 3);
}

TEST(MII, RecMIIOfAccumulator) {
  // dot: s = s + x*y, distance-1 self edge on a latency-4 add -> RecMII 4.
  const workload::Loop loop = workload::MakeDot();
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(RecMII(loop.ddg, m.lat), 4);
}

TEST(MII, RecMIIOfTwoNodeCycle) {
  // x = a*x + b: mul(4) + add(4) over distance 1 -> RecMII 8.
  const workload::Loop loop = workload::MakeFirstOrderRec();
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(RecMII(loop.ddg, m.lat), 8);
}

TEST(MII, RecMIIScalesWithDistance) {
  DDG g;
  const NodeId a = g.AddNode(OpClass::kFAdd);
  const NodeId b = g.AddNode(OpClass::kFAdd);
  g.AddFlow(a, b, 0);
  g.AddFlow(b, a, 4);  // 8 cycles of latency over distance 4 -> RecMII 2
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(RecMII(g, m.lat), 2);
}

TEST(MII, AcyclicGraphHasRecMII1) {
  const workload::Loop loop = workload::MakeVadd();
  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_EQ(RecMII(loop.ddg, m.lat), 1);
  const MIIInfo info = ComputeMII(loop.ddg, m);
  EXPECT_EQ(info.MII(), 1);
}

TEST(SCC, FindsRecurrences) {
  const workload::Loop loop = workload::MakeFirstOrderRec();
  const auto on_rec = NodesOnRecurrences(loop.ddg);
  int count = 0;
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    if (on_rec[static_cast<size_t>(v)]) ++count;
  }
  EXPECT_EQ(count, 2);  // the mul+add cycle
}

TEST(SCC, TrivialComponentsForDag) {
  const workload::Loop loop = workload::MakeVadd();
  for (const auto& scc : SCCs(loop.ddg)) {
    EXPECT_EQ(scc.size(), 1u);
  }
}

TEST(Kernels, AllStructurallyValid) {
  const workload::Suite kernel_suite = workload::KernelSuite();
  for (const workload::Loop& loop : kernel_suite.loops()) {
    std::string why;
    EXPECT_TRUE(loop.ddg.Check(&why)) << loop.ddg.name() << ": " << why;
    EXPECT_GT(loop.ddg.NumNodes(), 0) << loop.ddg.name();
    EXPECT_GT(loop.trip, 0) << loop.ddg.name();
  }
}

}  // namespace
}  // namespace hcrf
