// Unit tests for the modulo reservation table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "sched/mrt.h"

namespace hcrf::sched {
namespace {

MachineConfig Mono() {
  return MachineConfig::WithRF(RFConfig::Parse("S128"));
}
MachineConfig Clustered() {
  return MachineConfig::WithRF(RFConfig::Parse("4C32/1-1"));
}
MachineConfig Hier() {
  return MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
}

TEST(MRT, Capacities) {
  ModuloReservationTable mono(Mono(), 4);
  EXPECT_EQ(mono.Capacity(ResKind::kFU, 0), 8);
  EXPECT_EQ(mono.Capacity(ResKind::kMemPort, 0), 4);
  EXPECT_EQ(mono.Capacity(ResKind::kLoadRPort, 0), 0);
  EXPECT_EQ(mono.Capacity(ResKind::kBus, 0), 0);

  ModuloReservationTable cl(Clustered(), 4);
  EXPECT_EQ(cl.Capacity(ResKind::kFU, 0), 2);
  EXPECT_EQ(cl.Capacity(ResKind::kMemPort, 3), 1);
  EXPECT_EQ(cl.Capacity(ResKind::kBusInPort, 0), 1);
  EXPECT_EQ(cl.Capacity(ResKind::kBus, 0), 2);  // nb = x/2
  EXPECT_EQ(cl.Capacity(ResKind::kLoadRPort, 0), 0);

  ModuloReservationTable hc(Hier(), 4);
  EXPECT_EQ(hc.Capacity(ResKind::kFU, 0), 2);
  EXPECT_EQ(hc.Capacity(ResKind::kMemPort, 0), 4);  // global, shared bank
  EXPECT_EQ(hc.Capacity(ResKind::kLoadRPort, 2), 2);
  EXPECT_EQ(hc.Capacity(ResKind::kStoreRPort, 2), 1);
  EXPECT_EQ(hc.Capacity(ResKind::kBus, 0), 0);
}

TEST(MRT, PlaceAndConflict) {
  const MachineConfig m = Clustered();
  ModuloReservationTable mrt(m, 2);
  const auto fu = ResourceNeeds(OpClass::kFAdd, 0, 0, m);
  // 2 FUs per cluster at II=2 -> 4 slots per cluster, 2 per row.
  EXPECT_TRUE(mrt.CanPlace(fu, 0));
  mrt.Place(1, fu, 0);
  mrt.Place(2, fu, 0);
  EXPECT_FALSE(mrt.CanPlace(fu, 0));
  EXPECT_TRUE(mrt.CanPlace(fu, 1));
  // Modulo wrap: cycle 2 is row 0 again.
  EXPECT_FALSE(mrt.CanPlace(fu, 2));
  std::vector<NodeId> conflicts;
  mrt.ConflictingNodes(fu, 0, conflicts);
  EXPECT_EQ(conflicts.size(), 2u);
  mrt.Remove(1);
  EXPECT_TRUE(mrt.CanPlace(fu, 0));
  EXPECT_TRUE(mrt.IsPlaced(2));
  EXPECT_FALSE(mrt.IsPlaced(1));
}

TEST(MRT, UnpipelinedOccupiesFullLatency) {
  MachineConfig m = Mono();
  m.num_fus = 1;
  ModuloReservationTable mrt(m, 4);
  const auto div = ResourceNeeds(OpClass::kFDiv, 0, 0, m);
  ASSERT_EQ(div.count, 1);
  EXPECT_EQ(div.uses[0].duration, 17);
  // 17-cycle occupancy cannot fit a 4-cycle kernel on one FU.
  EXPECT_FALSE(mrt.CanPlace(div, 0));

  ModuloReservationTable big(m, 17);
  EXPECT_TRUE(big.CanPlace(div, 0));
  big.Place(7, div, 0);
  // Fully occupied: any add conflicts at any row.
  const auto add = ResourceNeeds(OpClass::kFAdd, 0, 0, m);
  for (int t = 0; t < 17; ++t) EXPECT_FALSE(big.CanPlace(add, t));
}

TEST(MRT, MoveUsesBusAndPorts) {
  const MachineConfig m = Clustered();
  ModuloReservationTable mrt(m, 1);
  const auto mv01 = ResourceNeeds(OpClass::kMove, 1, 0, m);  // 0 -> 1
  const auto mv02 = ResourceNeeds(OpClass::kMove, 2, 0, m);  // 0 -> 2
  const auto mv12 = ResourceNeeds(OpClass::kMove, 2, 1, m);  // 1 -> 2
  // sp=1 output port on cluster 0: a second move out of 0 cannot issue the
  // same cycle even though a bus is free.
  EXPECT_TRUE(mrt.CanPlace(mv01, 0));
  mrt.Place(1, mv01, 0);
  EXPECT_FALSE(mrt.CanPlace(mv02, 0));
  // From another cluster everything is free (cluster 1's out port,
  // cluster 2's in port, the second bus), so 1 -> 2 can issue.
  EXPECT_TRUE(mrt.CanPlace(mv12, 0));
}

TEST(MRT, MoveBusSaturation) {
  const MachineConfig m = Clustered();
  ModuloReservationTable mrt(m, 1);
  mrt.Place(1, ResourceNeeds(OpClass::kMove, 1, 0, m), 0);  // 0 -> 1
  const auto mv32 = ResourceNeeds(OpClass::kMove, 2, 3, m);  // 3 -> 2
  EXPECT_TRUE(mrt.CanPlace(mv32, 0));
  mrt.Place(2, mv32, 0);
  // Both buses taken now.
  const auto mv13 = ResourceNeeds(OpClass::kMove, 3, 1, m);  // 1 -> 3
  EXPECT_FALSE(mrt.CanPlace(mv13, 0));
  std::vector<NodeId> conflicts;
  mrt.ConflictingNodes(mv13, 0, conflicts);
  EXPECT_EQ(conflicts.size(), 2u);
}

TEST(MRT, NegativeCyclesWrapCorrectly) {
  const MachineConfig m = Mono();
  ModuloReservationTable mrt(m, 3);
  const auto ld = ResourceNeeds(OpClass::kLoad, 0, 0, m);
  mrt.Place(1, ld, -1);  // row 2
  EXPECT_EQ(mrt.Usage(ResKind::kMemPort, 0, 2), 1);
  mrt.Remove(1);
  EXPECT_EQ(mrt.Usage(ResKind::kMemPort, 0, 2), 0);
}

TEST(MRT, RejectsBadII) {
  EXPECT_THROW(ModuloReservationTable(Mono(), 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FindFirstSlot up/down vs the CanPlace-by-CanPlace definition
// ---------------------------------------------------------------------------

// The pre-optimization definition of the window scans. The blocked
// row-scan rewrite must be indistinguishable from this on every input.
int RefUp(const ModuloReservationTable& mrt, std::span<const ResUse> needs,
          int lo, int hi) {
  for (int t = lo; t <= hi; ++t) {
    if (mrt.CanPlace(needs, t)) return t;
  }
  return ModuloReservationTable::kNoSlot;
}

int RefDown(const ModuloReservationTable& mrt, std::span<const ResUse> needs,
            int hi, int lo) {
  for (int t = hi; t >= lo; --t) {
    if (mrt.CanPlace(needs, t)) return t;
  }
  return ModuloReservationTable::kNoSlot;
}

// Random resource needs legal on `m` (Moves only exist on clustered buses,
// LoadR/StoreR only on hierarchical organizations, FDiv exercises the
// unpipelined scalar fallback).
ResUseList RandomNeeds(std::mt19937& rng, const MachineConfig& m) {
  const int clusters = m.rf.clusters > 0 ? m.rf.clusters : 1;
  std::vector<OpClass> ops = {OpClass::kFAdd, OpClass::kFMul, OpClass::kLoad,
                              OpClass::kStore, OpClass::kFDiv};
  if (m.rf.clusters > 1 && m.rf.shared_regs == 0) ops.push_back(OpClass::kMove);
  if (m.rf.clusters > 1 && m.rf.shared_regs > 0) {
    ops.push_back(OpClass::kLoadR);
    ops.push_back(OpClass::kStoreR);
  }
  const OpClass op = ops[rng() % ops.size()];
  const int cluster = static_cast<int>(rng() % clusters);
  int src = static_cast<int>(rng() % clusters);
  if (op == OpClass::kMove && src == cluster) src = (src + 1) % clusters;
  return ResourceNeeds(op, cluster, src, m);
}

TEST(MRT, RandomizedScanEquivalence) {
  std::mt19937 rng(20260808);
  const MachineConfig machines[] = {Mono(), Clustered(), Hier()};
  const int iis[] = {1, 2, 3, 5, 7, 11, 17};
  for (int trial = 0; trial < 240; ++trial) {
    const MachineConfig& m = machines[trial % 3];
    const int ii = iis[rng() % (sizeof(iis) / sizeof(iis[0]))];
    ModuloReservationTable mrt(m, ii);
    // Fill to a random occupancy level (0 = empty .. heavy, often up to
    // full saturation of some resource rows).
    const int fills = static_cast<int>(rng() % 64);
    NodeId next = 1;
    for (int f = 0; f < fills; ++f) {
      const ResUseList needs = RandomNeeds(rng, m);
      const int cycle = static_cast<int>(rng() % (4 * ii + 1)) - 2 * ii;
      if (mrt.CanPlace(needs, cycle)) mrt.Place(next++, needs, cycle);
    }
    for (int probe = 0; probe < 10; ++probe) {
      ResUseList needs;
      if (rng() % 8 != 0) needs = RandomNeeds(rng, m);  // 1-in-8: empty
      // Windows straddle negative cycles, wrap several kernels, collapse
      // to one cycle, or invert (hi < lo must find nothing).
      const int lo = static_cast<int>(rng() % (4 * ii + 7)) - 2 * ii - 3;
      const int width = static_cast<int>(rng() % (3 * ii + 5)) - 2;
      const int hi = lo + width;
      EXPECT_EQ(mrt.FindFirstSlot(needs, lo, hi, ScanDir::kUp),
                RefUp(mrt, needs, lo, hi))
          << "up ii=" << ii << " lo=" << lo << " hi=" << hi;
      EXPECT_EQ(mrt.FindFirstSlot(needs, lo, hi, ScanDir::kDown),
                RefDown(mrt, needs, hi, lo))
          << "down ii=" << ii << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(MRT, ScansOnFullySaturatedTable) {
  // Saturate every FU and memory-port row, then scan wide windows: both
  // directions must report kNoSlot for FU/memory needs at any range shape.
  const MachineConfig m = Mono();
  for (const int ii : {1, 3, 8}) {
    ModuloReservationTable mrt(m, ii);
    NodeId next = 1;
    const auto fu = ResourceNeeds(OpClass::kFAdd, 0, 0, m);
    const auto ld = ResourceNeeds(OpClass::kLoad, 0, 0, m);
    for (int t = 0; t < ii; ++t) {
      while (mrt.CanPlace(fu, t)) mrt.Place(next++, fu, t);
      while (mrt.CanPlace(ld, t)) mrt.Place(next++, ld, t);
    }
    for (const auto& needs : {fu, ld}) {
      EXPECT_EQ(mrt.FindFirstSlot(needs, 0, 10 * ii, ScanDir::kUp),
                ModuloReservationTable::kNoSlot);
      EXPECT_EQ(mrt.FindFirstSlot(needs, -10 * ii, 10 * ii, ScanDir::kDown),
                ModuloReservationTable::kNoSlot);
      EXPECT_EQ(mrt.FindFirstSlot(needs, -3, -3, ScanDir::kUp),
                ModuloReservationTable::kNoSlot);
    }
    // Empty needs still fit everywhere.
    EXPECT_EQ(mrt.FindFirstSlot(ResUseList{}, -5, 5, ScanDir::kUp), -5);
    EXPECT_EQ(mrt.FindFirstSlot(ResUseList{}, -5, 5, ScanDir::kDown), 5);
  }
}

TEST(MRT, ScanWindowClampMatchesPeriodicity) {
  // A window far wider than II: only the first II candidates can differ,
  // and a hole at exactly one row must be found at its first occurrence in
  // scan order from either direction.
  const MachineConfig m = Clustered();
  const int ii = 5;
  ModuloReservationTable mrt(m, ii);
  const auto fu = ResourceNeeds(OpClass::kFAdd, 2, 0, m);
  NodeId next = 1;
  for (int t = 0; t < ii; ++t) {
    if (t == 3) continue;  // leave row 3 open
    while (mrt.CanPlace(fu, t)) mrt.Place(next++, fu, t);
  }
  EXPECT_EQ(mrt.FindFirstSlot(fu, 0, 100, ScanDir::kUp), 3);
  EXPECT_EQ(mrt.FindFirstSlot(fu, 4, 100, ScanDir::kUp), 8);  // row 3 again
  EXPECT_EQ(mrt.FindFirstSlot(fu, -9, 100, ScanDir::kUp), -7);  // -7 mod 5 == 3
  EXPECT_EQ(mrt.FindFirstSlot(fu, 0, 100, ScanDir::kDown), 98);
  EXPECT_EQ(mrt.FindFirstSlot(fu, -100, 2, ScanDir::kDown), -2);
  // The clamp must not skip candidates of a window shorter than II.
  EXPECT_EQ(mrt.FindFirstSlot(fu, 0, 2, ScanDir::kUp),
            ModuloReservationTable::kNoSlot);
  EXPECT_EQ(mrt.FindFirstSlot(fu, 0, 2, ScanDir::kDown),
            ModuloReservationTable::kNoSlot);
}


// ---------------------------------------------------------------------------
// Occupant bookkeeping vs the vector-of-vectors it replaced
// ---------------------------------------------------------------------------

// The table's occupant bookkeeping as it was before the flat blocks: one
// vector of ids per (kind, cluster, row) slot, appended on Place, erased
// in place on Remove. ConflictingNodes' ejection order comes from it, so
// the flat blocks must reproduce it id for id.
class ReferenceOccupants {
 public:
  void Rebind(int ii) {
    ii_ = ii;
    slots_.clear();
    placed_.clear();
  }
  void Place(NodeId node, const ResUseList& needs, int cycle) {
    for (const ResUse& use : needs) {
      for (int d = 0; d < use.duration; ++d) {
        slots_[Key(use, cycle + d)].push_back(node);
      }
    }
    placed_[node] = {needs, cycle};
  }
  void Remove(NodeId node) {
    const auto it = placed_.find(node);
    if (it == placed_.end()) return;
    for (const ResUse& use : it->second.first) {
      for (int d = 0; d < use.duration; ++d) {
        auto& occ = slots_[Key(use, it->second.second + d)];
        occ.erase(std::find(occ.begin(), occ.end(), node));
      }
    }
    placed_.erase(it);
  }
  std::vector<NodeId> ConflictingNodes(const ModuloReservationTable& mrt,
                                       std::span<const ResUse> needs,
                                       int cycle) {
    std::vector<NodeId> result;
    for (const ResUse& use : needs) {
      const int cap = mrt.Capacity(use.kind, use.cluster);
      if (cap <= 0) continue;
      for (int d = 0; d < use.duration; ++d) {
        const auto& occ = slots_[Key(use, cycle + d)];
        if (static_cast<int>(occ.size()) < cap) continue;
        for (NodeId n : occ) {
          if (std::find(result.begin(), result.end(), n) == result.end()) {
            result.push_back(n);
          }
        }
      }
    }
    return result;
  }
  bool IsPlaced(NodeId node) const { return placed_.contains(node); }

 private:
  std::tuple<ResKind, int, int> Key(const ResUse& use, int cycle) const {
    const int r = cycle % ii_;
    return {use.kind, use.cluster, r < 0 ? r + ii_ : r};
  }

  int ii_ = 1;
  std::map<std::tuple<ResKind, int, int>, std::vector<NodeId>> slots_;
  std::map<NodeId, std::pair<ResUseList, int>> placed_;
};

/// A monolithic machine whose FUs are wider than kMaxTrackedCapacity: its
/// slots keep no occupant block, so a full one is found by scanning the
/// placement records.
MachineConfig Wide() {
  MachineConfig m = Mono();
  m.num_fus = ModuloReservationTable::kMaxTrackedCapacity + 3;
  return m;
}

TEST(MRT, ConflictingNodesMatchesVectorOfVectorsOrder) {
  std::mt19937 rng(20261019);
  const MachineConfig machines[] = {Mono(), Clustered(), Hier(), Wide()};
  const int iis[] = {1, 2, 3, 4, 6, 17};
  ModuloReservationTable mrt(Mono(), 1);
  ReferenceOccupants ref;
  std::vector<NodeId> got;
  long compared = 0;
  long nonempty = 0;
  long wide_nonempty = 0;
  for (int epoch = 0; epoch < 80; ++epoch) {
    // Rebind, half the time onto another machine: the flat blocks are
    // re-laid out and must start empty either way.
    const int pick = static_cast<int>(rng() % 4);
    const MachineConfig& m = machines[pick];
    const bool wide = pick == 3;
    // Filling a wide row takes more nodes than a narrow machine's, on few
    // rows.
    const int ii = wide ? 1 + static_cast<int>(rng() % 2)
                        : iis[rng() % (sizeof(iis) / sizeof(iis[0]))];
    const unsigned nodes = wide ? 512 : 48;
    const int steps = wide ? 1600 : 400;
    if (epoch % 2 == 0) {
      mrt.Rebind(m, ii);
    } else {
      mrt = ModuloReservationTable(m, ii);
    }
    ref.Rebind(ii);
    for (int step = 0; step < steps; ++step) {
      const NodeId node = static_cast<NodeId>(rng() % nodes);
      const unsigned action = rng() % 10;
      if (action < 5) {
        const ResUseList needs = RandomNeeds(rng, m);
        const int cycle = static_cast<int>(rng() % (6 * ii + 1)) - 3 * ii;
        if (!mrt.IsPlaced(node) && mrt.CanPlace(needs, cycle)) {
          mrt.Place(node, needs, cycle);
          ref.Place(node, needs, cycle);
        }
      } else if (action < 8) {
        mrt.Remove(node);
        ref.Remove(node);
      } else {
        const ResUseList needs = RandomNeeds(rng, m);
        const int cycle = static_cast<int>(rng() % (6 * ii + 1)) - 3 * ii;
        mrt.ConflictingNodes(needs, cycle, got);
        const std::vector<NodeId> want = ref.ConflictingNodes(mrt, needs, cycle);
        ASSERT_EQ(got, want) << "epoch " << epoch << " step " << step;
        ++compared;
        if (!want.empty()) ++nonempty;
        if (wide && static_cast<int>(want.size()) >= m.num_fus) {
          ++wide_nonempty;  // a full FU row, listed by the scan
        }
      }
      ASSERT_EQ(mrt.IsPlaced(node), ref.IsPlaced(node));
    }
  }
  // Full slots must actually occur, or the order check checks nothing.
  EXPECT_GT(nonempty, compared / 4);
  EXPECT_GT(wide_nonempty, 0);
}

}  // namespace
}  // namespace hcrf::sched
