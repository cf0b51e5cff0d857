#include "sched/mrt.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/check.h"

namespace hcrf::sched {

std::string_view ToString(ResKind kind) {
  switch (kind) {
    case ResKind::kFU: return "fu";
    case ResKind::kMemPort: return "memport";
    case ResKind::kLoadRPort: return "loadr-port";
    case ResKind::kStoreRPort: return "storer-port";
    case ResKind::kBusInPort: return "bus-in";
    case ResKind::kBusOutPort: return "bus-out";
    case ResKind::kBus: return "bus";
  }
  return "?";
}

ResUseList ResourceNeeds(OpClass op, int cluster, int src_cluster,
                         const MachineConfig& m) {
  ResUseList needs;
  if (IsCompute(op)) {
    const int dur = IsUnpipelined(op) ? m.lat.Of(op) : 1;
    needs.Add(ResKind::kFU, cluster, dur);
  } else if (IsMemory(op)) {
    const int c = m.rf.IsPureClustered() ? cluster : 0;
    needs.Add(ResKind::kMemPort, c, 1);
  } else if (op == OpClass::kLoadR) {
    needs.Add(ResKind::kLoadRPort, cluster, 1);
  } else if (op == OpClass::kStoreR) {
    needs.Add(ResKind::kStoreRPort, cluster, 1);
  } else if (op == OpClass::kMove) {
    needs.Add(ResKind::kBusOutPort, src_cluster, 1);
    needs.Add(ResKind::kBusInPort, cluster, 1);
    needs.Add(ResKind::kBus, 0, 1);
  }
  return needs;
}

ModuloReservationTable::ModuloReservationTable(const MachineConfig& m, int ii) {
  Rebind(m, ii);
}

void ModuloReservationTable::Rebind(const MachineConfig& m, int ii) {
  if (ii <= 0) throw std::invalid_argument("MRT: II must be positive");
  machine_ = m;
  const RFConfig& rf = m.rf;
  const int clusters = m.NumClusters();
  auto clamp_ports = [](int p) {
    return std::min(p, kUnboundedPorts);  // "unbounded" still needs finite storage
  };
  auto set = [&](ResKind kind, int units, int capacity) {
    num_units_[static_cast<size_t>(kind)] = units;
    capacity_[static_cast<size_t>(kind)] = capacity;
  };
  set(ResKind::kFU, clusters, m.FusPerCluster());
  if (rf.IsPureClustered()) {
    set(ResKind::kMemPort, clusters, m.MemPortsPerCluster());
  } else {
    set(ResKind::kMemPort, 1, m.num_mem_ports);
  }
  set(ResKind::kLoadRPort, clusters,
      rf.IsHierarchical() ? clamp_ports(rf.lp) : 0);
  set(ResKind::kStoreRPort, clusters,
      rf.IsHierarchical() ? clamp_ports(rf.sp) : 0);
  set(ResKind::kBusInPort, clusters,
      rf.IsPureClustered() ? clamp_ports(rf.lp) : 0);
  set(ResKind::kBusOutPort, clusters,
      rf.IsPureClustered() ? clamp_ports(rf.sp) : 0);
  set(ResKind::kBus, 1, rf.IsPureClustered() ? clamp_ports(rf.buses) : 0);
  for (int k = 0; k < kNumResKinds; ++k) {
    const int cap = capacity_[static_cast<size_t>(k)];
    stride_[static_cast<size_t>(k)] = cap <= kMaxTrackedCapacity ? cap : 0;
  }
  Rebind(ii);
}

void ModuloReservationTable::Rebind(int ii) {
  if (ii <= 0) throw std::invalid_argument("MRT: II must be positive");
  ii_ = ii;
  // One flat row-major array over all (kind, cluster, row) slots, and one
  // over their occupant blocks.
  size_t total = 0;
  size_t occ_total = 0;
  for (size_t k = 0; k < kNumResKinds; ++k) {
    const size_t slots =
        static_cast<size_t>(num_units_[k]) * static_cast<size_t>(ii_);
    base_[k] = total;
    occ_base_[k] = occ_total;
    total += slots;
    occ_total += slots * static_cast<size_t>(stride_[k]);
  }
  count_.assign(total, 0);
  // Blocks are read only up to their slot's count, so stale ids from an
  // earlier attempt need no clearing.
  if (occupants_.size() < occ_total) occupants_.resize(occ_total);
  placed_.clear();  // keeps the capacity
  next_seq_ = 0;
}

int ModuloReservationTable::Capacity(ResKind kind, int cluster) const {
  const auto k = static_cast<size_t>(kind);
  if (cluster < 0 || cluster >= num_units_[k]) return 0;
  return capacity_[k];
}

int ModuloReservationTable::Usage(ResKind kind, int cluster, int row) const {
  if (cluster < 0 || cluster >= num_units_[static_cast<size_t>(kind)]) {
    return 0;
  }
  return count_[Base(kind, cluster) + static_cast<size_t>(Row(row))];
}

bool ModuloReservationTable::CanPlace(std::span<const ResUse> needs,
                                      int cycle) const {
  for (const ResUse& use : needs) {
    const int cap = Capacity(use.kind, use.cluster);
    if (cap <= 0) return false;
    const size_t base = Base(use.kind, use.cluster);
    for (int d = 0; d < use.duration; ++d) {
      if (count_[base + static_cast<size_t>(Row(cycle + d))] >= cap) {
        return false;
      }
    }
    // Unpipelined ops longer than the kernel conflict with themselves.
    if (use.duration > ii_) return false;
  }
  return true;
}

/// Per-use constants hoisted out of the per-cycle probe.
struct ModuloReservationTable::HoistedNeeds {
  int caps[kMaxResUses];
  size_t bases[kMaxResUses];
  int durs[kMaxResUses];
  size_t n = 0;
};

// Hoists the per-use capacity/base lookups; false when any use is
// structurally impossible (no capacity, duration beyond the kernel), which
// fails every cycle of a scan.
bool ModuloReservationTable::Hoist(std::span<const ResUse> needs,
                                   HoistedNeeds& h) const {
  for (const ResUse& use : needs) {
    const int cap = Capacity(use.kind, use.cluster);
    if (cap <= 0 || use.duration > ii_) return false;
    h.caps[h.n] = cap;
    h.bases[h.n] = Base(use.kind, use.cluster);
    h.durs[h.n] = use.duration;
    ++h.n;
  }
  return true;
}

bool ModuloReservationTable::Fits(const HoistedNeeds& h, int t) const {
  for (size_t i = 0; i < h.n; ++i) {
    for (int d = 0; d < h.durs[i]; ++d) {
      if (count_[h.bases[i] + static_cast<size_t>(Row(t + d))] >= h.caps[i]) {
        return false;
      }
    }
  }
  return true;
}

template <int N, ScanDir D>
int ModuloReservationTable::ScanRows(const HoistedNeeds& h, int r0,
                                     int len) const {
  constexpr int step = D == ScanDir::kUp ? 1 : -1;
  const int* cnt[N];
  int cap[N];
  for (int i = 0; i < N; ++i) {
    cnt[i] = count_.data() + h.bases[i];
    cap[i] = h.caps[i];
  }
  int done = 0;
  int r = r0;
  while (done < len) {
    // Rows are contiguous until the walk wraps: past II-1 upward, below 0
    // downward.
    const int seg =
        std::min(len - done, D == ScanDir::kUp ? ii_ - r : r + 1);
    int j = 0;
    for (; j + 8 <= seg; j += 8) {
      // Bit b maps to the b-th step of the walk, so the lowest set bit is
      // the first hit in either direction.
      unsigned mask = 0;
      for (int b = 0; b < 8; ++b) {
        unsigned fit = 1;
        for (int i = 0; i < N; ++i) {
          fit &= static_cast<unsigned>(cnt[i][r + step * (j + b)] < cap[i]);
        }
        mask |= fit << b;
      }
      if (mask != 0) return done + j + std::countr_zero(mask);
    }
    for (; j < seg; ++j) {
      bool fit = true;
      for (int i = 0; i < N; ++i) fit = fit && cnt[i][r + step * j] < cap[i];
      if (fit) return done + j;
    }
    done += seg;
    r = D == ScanDir::kUp ? 0 : ii_ - 1;
  }
  return -1;
}

int ModuloReservationTable::FindFirstSlot(std::span<const ResUse> needs,
                                          int lo, int hi, ScanDir dir) const {
  HoistedNeeds h;
  if (lo > hi || !Hoist(needs, h)) return kNoSlot;
  const bool up = dir == ScanDir::kUp;
  const int start = up ? lo : hi;
  const int step = up ? 1 : -1;
  if (h.n == 0) return start;
  // Occupancy is read mod II, so a candidate at t fits iff t - II did: only
  // the first II cycles of the walk can differ, and the first fit (if any)
  // lies among them.
  const int len = static_cast<int>(
      std::min<long long>(static_cast<long long>(hi) - lo + 1, ii_));
  bool pipelined = true;
  for (size_t i = 0; i < h.n; ++i) pipelined = pipelined && h.durs[i] == 1;
  if (!pipelined) {
    // Unpipelined FU needs probe a row range per candidate; keep the
    // scalar hoisted probe (rare: only multi-cycle unpipelined ops).
    for (int k = 0; k < len; ++k) {
      if (Fits(h, start + step * k)) return start + step * k;
    }
    return kNoSlot;
  }
  const int r0 = Row(start);
  int k;
  switch (h.n) {
    case 1:
      k = up ? ScanRows<1, ScanDir::kUp>(h, r0, len)
             : ScanRows<1, ScanDir::kDown>(h, r0, len);
      break;
    case 2:
      k = up ? ScanRows<2, ScanDir::kUp>(h, r0, len)
             : ScanRows<2, ScanDir::kDown>(h, r0, len);
      break;
    default:
      k = up ? ScanRows<3, ScanDir::kUp>(h, r0, len)
             : ScanRows<3, ScanDir::kDown>(h, r0, len);
      break;
  }
  return k < 0 ? kNoSlot : start + step * k;
}

void ModuloReservationTable::Place(NodeId node, const ResUseList& needs,
                                   int cycle) {
  HCRF_CHECK(!IsPlaced(node), "double placement of node %d", node);
  HCRF_CHECK(CanPlace(needs, cycle),
             "placing node %d at cycle %d over capacity", node, cycle);
  for (const ResUse& use : needs) {
    const size_t base = Base(use.kind, use.cluster);
    const bool tracked = stride_[static_cast<size_t>(use.kind)] > 0;
    for (int d = 0; d < use.duration; ++d) {
      const int row = Row(cycle + d);
      int& count = count_[base + static_cast<size_t>(row)];
      if (tracked) {
        occupants_[OccupantBase(use.kind, use.cluster, row) +
                   static_cast<size_t>(count)] = node;
      }
      ++count;
    }
  }
  if (static_cast<size_t>(node) >= placed_.size()) {
    placed_.resize(static_cast<size_t>(node) + 1);
  }
  placed_[static_cast<size_t>(node)] =
      PlacedRec{needs, cycle, true, next_seq_++};
}

void ModuloReservationTable::Remove(NodeId node) {
  if (!IsPlaced(node)) return;
  PlacedRec& rec = placed_[static_cast<size_t>(node)];
  for (const ResUse& use : rec.needs) {
    const size_t base = Base(use.kind, use.cluster);
    const bool tracked = stride_[static_cast<size_t>(use.kind)] > 0;
    for (int d = 0; d < use.duration; ++d) {
      const int row = Row(rec.cycle + d);
      int& count = count_[base + static_cast<size_t>(row)];
      if (tracked) {
        // Order-preserving erase: ConflictingNodes reports occupants in
        // placement order, and the ejection order depends on it.
        NodeId* occ =
            occupants_.data() + OccupantBase(use.kind, use.cluster, row);
        NodeId* last = occ + count;
        NodeId* pos = std::find(occ, last, node);
        HCRF_CHECK(pos != last,
                   "node %d missing from its reserved slot occupants", node);
        std::copy(pos + 1, last, pos);
      }
      --count;
    }
  }
  rec.placed = false;
}

void ModuloReservationTable::ConflictingNodes(std::span<const ResUse> needs,
                                              int cycle,
                                              std::vector<NodeId>& result) const {
  result.clear();
  for (const ResUse& use : needs) {
    const int cap = Capacity(use.kind, use.cluster);
    if (cap <= 0) continue;  // structurally impossible; caller handles
    const size_t base = Base(use.kind, use.cluster);
    for (int d = 0; d < use.duration; ++d) {
      const int row = Row(cycle + d);
      const int count = count_[base + static_cast<size_t>(row)];
      if (count < cap) continue;
      if (stride_[static_cast<size_t>(use.kind)] == 0) {
        AppendOccupantsByScan(use, row, result);
        continue;
      }
      const NodeId* occ =
          occupants_.data() + OccupantBase(use.kind, use.cluster, row);
      for (const NodeId* p = occ; p != occ + count; ++p) {
        if (std::find(result.begin(), result.end(), *p) == result.end()) {
          result.push_back(*p);
        }
      }
    }
  }
}

void ModuloReservationTable::AppendOccupantsByScan(
    const ResUse& slot, int row, std::vector<NodeId>& result) const {
  const auto first = static_cast<std::ptrdiff_t>(result.size());
  for (size_t v = 0; v < placed_.size(); ++v) {
    const PlacedRec& rec = placed_[v];
    if (!rec.placed) continue;
    bool occupies = false;
    for (const ResUse& use : rec.needs) {
      if (use.kind != slot.kind || use.cluster != slot.cluster) continue;
      for (int d = 0; d < use.duration && !occupies; ++d) {
        occupies = Row(rec.cycle + d) == row;
      }
    }
    const auto node = static_cast<NodeId>(v);
    if (occupies &&
        std::find(result.begin(), result.end(), node) == result.end()) {
      result.push_back(node);
    }
  }
  // The records are by id; an occupant block would list the slot in the
  // order its occupants were placed, and the ejection order follows it.
  std::sort(result.begin() + first, result.end(), [this](NodeId a, NodeId b) {
    return placed_[static_cast<size_t>(a)].seq <
           placed_[static_cast<size_t>(b)].seq;
  });
}

}  // namespace hcrf::sched
