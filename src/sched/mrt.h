// Modulo reservation table: tracks resource usage of a partial modulo
// schedule at a fixed initiation interval II. All placements are recorded
// at `cycle mod II`; unpipelined operations occupy their functional unit
// for their full latency.
//
// Modelled resources:
//   kFU          per cluster     general-purpose functional units
//   kMemPort     per cluster for pure clustered organizations, otherwise
//                one global pool (hierarchical organizations attach the
//                memory ports to the shared bank)
//   kLoadRPort   per cluster     shared->cluster transfer ports (lp)
//   kStoreRPort  per cluster     cluster->shared transfer ports (sp)
//   kBusIn/Out   per cluster     bus receive (lp) / drive (sp) ports of
//                                pure clustered organizations
//   kBus         global          inter-cluster buses (nb)
//
// The table sits on the scheduler's hottest path (every placement probe of
// the iterative engine scans a window of candidate cycles, top-down or
// bottom-up, through FindFirstSlot: one routine for both directions, each
// compiled to its own unrolled row scan), so it is built from flat tables
// that a rebind reuses: resource needs are
// fixed-capacity inline arrays (ResUseList), occupancy counts live in one
// flat row-major int array indexed by a precomputed (kind, cluster) base,
// and per-node placement records are a flat vector instead of a hash map.
// Occupant identities (needed only by force-and-eject and Remove) live in
// a second flat array with one block of `capacity` ids per slot, in
// placement order, which the probe path never touches (units wider than
// kMaxTrackedCapacity keep none; see stride_). Once its buffers have grown
// to the largest II and machine seen, Rebind, Place and Remove allocate
// nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ddg/ddg.h"
#include "machine/machine_config.h"

namespace hcrf::sched {

enum class ResKind : std::uint8_t {
  kFU,
  kMemPort,
  kLoadRPort,
  kStoreRPort,
  kBusInPort,
  kBusOutPort,
  kBus,
};
inline constexpr int kNumResKinds = 7;

/// Direction of a window scan: up from the window's low end (HRMS
/// top-down placement, after the predecessors) or down from its high end
/// (bottom-up, before the successors).
enum class ScanDir : std::uint8_t { kUp, kDown };

std::string_view ToString(ResKind kind);

/// One resource requirement: `count` is implicitly 1; `duration` cycles
/// starting at the placement cycle (duration > 1 only for unpipelined FUs).
struct ResUse {
  ResKind kind;
  int cluster;  ///< Cluster index, or 0 for global resources.
  int duration;
};

/// No operation needs more than 3 resources (Move: bus-out + bus-in + bus).
inline constexpr int kMaxResUses = 3;

/// Fixed-capacity list of one placement's resource requirements; lives on
/// the stack (or inline in the MRT's placement records), never the heap.
struct ResUseList {
  ResUse uses[kMaxResUses] = {};
  int count = 0;

  void Add(ResKind kind, int cluster, int duration) {
    uses[count++] = ResUse{kind, cluster, duration};
  }
  const ResUse* begin() const { return uses; }
  const ResUse* end() const { return uses + count; }
  std::span<const ResUse> span() const { return {uses, static_cast<size_t>(count)}; }
  operator std::span<const ResUse>() const { return span(); }
};

/// Resource requirements of one operation placement.
/// `src_cluster` is only consulted for Move (the bus-drive side).
ResUseList ResourceNeeds(OpClass op, int cluster, int src_cluster,
                         const MachineConfig& m);

class ModuloReservationTable {
 public:
  /// Port counts are clamped here: an unbounded organization still needs
  /// finite rows.
  static constexpr int kUnboundedPorts = 1 << 20;
  /// Widest unit whose slots keep an occupant block (see stride_).
  static constexpr int kMaxTrackedCapacity = 64;

  ModuloReservationTable(const MachineConfig& m, int ii);
  /// A table for the baseline machine at II 1, to be rebound.
  ModuloReservationTable() : ModuloReservationTable(MachineConfig{}, 1) {}

  /// Empties the table for a fresh attempt at a new II on the same
  /// machine, reusing every buffer (the per-II-attempt reset of the
  /// engine's escalation loop allocates nothing).
  void Rebind(int ii);
  /// Same, on another machine (the engine workspace reuses one table
  /// across calls).
  void Rebind(const MachineConfig& m, int ii);

  int ii() const { return ii_; }
  const MachineConfig& machine() const { return machine_; }

  /// True if all of `needs` have a free unit at `cycle` (mod II).
  bool CanPlace(std::span<const ResUse> needs, int cycle) const;

  /// Returned by FindFirstSlot when no cycle in the range fits.
  static constexpr int kNoSlot = std::numeric_limits<int>::min();

  /// The first cycle of lo..hi where CanPlace holds, walking up from `lo`
  /// (kUp) or down from `hi` (kDown); an inverted range (lo > hi) finds
  /// nothing. Exactly equivalent to calling CanPlace cycle by cycle.
  /// Internally the scan exploits that CanPlace is periodic in the cycle
  /// with period II (only the first II candidates of any walk can differ)
  /// and, for pipelined needs (every duration 1), runs as a branchless
  /// 8-wide blocked row scan that builds a fit mask per block and extracts
  /// the first hit with countr_zero — the per-use capacity/base lookups
  /// hoisted out of the probe. Each direction compiles to its own loop.
  int FindFirstSlot(std::span<const ResUse> needs, int lo, int hi,
                    ScanDir dir) const;

  /// Records the placement. Precondition: CanPlace (checked in debug).
  void Place(NodeId node, const ResUseList& needs, int cycle);

  /// Removes a previously placed node (no-op if absent).
  void Remove(NodeId node);

  bool IsPlaced(NodeId node) const {
    return static_cast<size_t>(node) < placed_.size() &&
           placed_[static_cast<size_t>(node)].placed;
  }

  /// Appends the nodes whose reservations block placing `needs` at `cycle`
  /// to `result` (deduplicated, placement order per slot; `result` is
  /// cleared first).
  /// Used by Force_and_Eject: ejecting these (plus dependence violators)
  /// makes the forced placement legal. Takes a caller-owned buffer so the
  /// engine can reuse one vector across forced placements.
  void ConflictingNodes(std::span<const ResUse> needs, int cycle,
                        std::vector<NodeId>& result) const;

  /// Occupancy of a resource at a kernel row (for debugging/validation).
  int Usage(ResKind kind, int cluster, int row) const;
  int Capacity(ResKind kind, int cluster) const;

  /// Entries the count and occupant tables hold, spares included: they
  /// grow with the widest machine and largest II the table has been bound
  /// to, and only a fresh table gives that memory back.
  size_t TableCapacity() const {
    return count_.capacity() + occupants_.capacity();
  }

 private:
  struct PlacedRec {
    ResUseList needs;
    int cycle = 0;
    bool placed = false;
    /// Place calls since the last Rebind: orders a slot's occupants when
    /// they are found by scanning these records.
    std::uint64_t seq = 0;
  };
  struct HoistedNeeds;  // per-use scan constants (defined in mrt.cpp)

  bool Hoist(std::span<const ResUse> needs, HoistedNeeds& h) const;
  /// ConflictingNodes for a slot without an occupant block: its occupants
  /// not yet in `result`, in placement order (PlacedRec::seq).
  void AppendOccupantsByScan(const ResUse& slot, int row,
                             std::vector<NodeId>& result) const;
  bool Fits(const HoistedNeeds& h, int t) const;

  /// Blocked row scan behind FindFirstSlot for all-duration-1 needs,
  /// specialized on the use count so the inner probe unrolls flat. Walks
  /// `len` rows (len <= II) from row `r0` in direction D, wrapping around
  /// the kernel; returns the step count of the first row where every use
  /// has headroom, or -1.
  template <int N, ScanDir D>
  int ScanRows(const HoistedNeeds& h, int r0, int len) const;

  /// Flat index of (kind, cluster) row 0; rows are contiguous per unit.
  size_t Base(ResKind kind, int cluster) const {
    return base_[static_cast<size_t>(kind)] +
           static_cast<size_t>(cluster) * static_cast<size_t>(ii_);
  }
  /// Flat index of the first occupant of the (kind, cluster, row) slot;
  /// the slot's block holds count_ ids in placement order.
  size_t OccupantBase(ResKind kind, int cluster, int row) const {
    const auto k = static_cast<size_t>(kind);
    return occ_base_[k] +
           (static_cast<size_t>(cluster) * static_cast<size_t>(ii_) +
            static_cast<size_t>(row)) *
               static_cast<size_t>(stride_[k]);
  }
  int Row(int cycle) const {
    const int r = cycle % ii_;
    return r < 0 ? r + ii_ : r;
  }

  std::vector<int> count_;  ///< occupancy count, [Base(kind,cluster) + row]
  /// Occupant ids, stride_[kind] per slot of the kind. Touched only by
  /// Place/Remove/ConflictingNodes, never by the CanPlace probe path.
  std::vector<NodeId> occupants_;
  /// Every unit of a kind has the same capacity.
  int capacity_[kNumResKinds] = {};
  int num_units_[kNumResKinds] = {};  ///< clusters modelled per kind
  /// Occupant block size per slot: the capacity, or 0 for kinds wider
  /// than kMaxTrackedCapacity (the clamped "unbounded" ports, or a machine
  /// document's outsized counts), whose blocks would cost memory in
  /// proportion to the capacity. Their slots practically never fill, and
  /// when one does ConflictingNodes finds its occupants by scanning the
  /// placement records instead, in the same placement order.
  int stride_[kNumResKinds] = {};
  size_t base_[kNumResKinds] = {};      ///< flat offset of each kind's rows
  size_t occ_base_[kNumResKinds] = {};  ///< same, into occupants_
  std::vector<PlacedRec> placed_;   ///< by NodeId
  std::uint64_t next_seq_ = 0;      ///< PlacedRec::seq of the next Place
  MachineConfig machine_;
  int ii_ = 1;
};

}  // namespace hcrf::sched
