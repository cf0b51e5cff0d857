#include "sched/lifetime.h"

#include <algorithm>
#include <cassert>

namespace hcrf::sched {

PressureReport ComputePressure(const DDG& g, const PartialSchedule& sched,
                               const MachineConfig& m,
                               const LatencyOverrides& overrides) {
  PressureScratch scratch;
  PressureReport report;
  ComputePressure(g, sched, m, overrides, scratch, report);
  return report;
}

void ComputePressure(const DDG& g, const PartialSchedule& sched,
                     const MachineConfig& m, const LatencyOverrides& overrides,
                     PressureScratch& scratch, PressureReport& report) {
  const RFConfig& rf = m.rf;
  const int ii = sched.ii();
  const int num_clusters = rf.clusters;
  const size_t banks = static_cast<size_t>(num_clusters) + 1;

  report.cluster_maxlive.assign(static_cast<size_t>(num_clusters), 0);
  report.shared_maxlive = 0;
  report.values.clear();

  // Pressure per (bank index, kernel row); bank index 0 = shared, 1..
  // clusters.
  scratch.rows.assign(banks * static_cast<size_t>(ii), 0);
  auto bank_rows = [&](size_t b) {
    return scratch.rows.data() + b * static_cast<size_t>(ii);
  };
  auto row_of = [ii](int cycle) {
    const int r = cycle % ii;
    return static_cast<size_t>(r < 0 ? r + ii : r);
  };
  auto bank_index = [](BankId b) {
    return static_cast<size_t>(b == kSharedBank ? 0 : b + 1);
  };

  // Value lifetimes.
  for (NodeId u = 0; u < g.NumSlots(); ++u) {
    if (!g.IsAlive(u) || !sched.IsScheduled(u)) continue;
    const Node& n = g.node(u);
    if (!DefinesValue(n.op)) continue;
    // First-level (cluster/monolithic) registers are reserved from issue
    // (no renaming) until the last consumer has read them. The shared bank
    // of a hierarchical organization is a decoupling buffer: values are
    // deposited on arrival (writeback), which is what makes the paper's
    // 16-register shared banks feasible at full memory-port utilization.
    const BankId def_bank = DefBank(n.op, sched.ClusterOf(u), rf);
    const int start =
        sched.CycleOf(u) + (def_bank == kSharedBank && rf.IsHierarchical()
                                ? ProducerLatency(g, u, m.lat, overrides)
                                : 0);
    int end = start;
    int uses = 0;
    for (const Edge& e : g.OutEdges(u)) {
      if (e.kind != DepKind::kFlow || !sched.IsScheduled(e.dst)) continue;
      ++uses;
      end = std::max(end, sched.CycleOf(e.dst) + e.distance * ii);
    }
    if (end < start) end = start;
    const BankId bank = def_bank;
    report.values.push_back(ValueLifetime{u, bank, start, end, uses});
    // A lifetime of length L occupies floor(L/II) registers in every
    // kernel row plus one more in L mod II consecutive rows.
    long* per_row = bank_rows(bank_index(bank));
    const int len = end - start;
    const long wraps = len / ii;
    if (wraps > 0) {
      for (int r = 0; r < ii; ++r) per_row[r] += wraps;
    }
    const int rem = len % ii;
    for (int c = start; c < start + rem; ++c) ++per_row[row_of(c)];
  }

  // Loop invariants: one register in every cluster bank that reads the
  // invariant directly, plus the master copy in the shared bank (when the
  // organization has one). Pure clustered organizations keep copies only
  // in the reading clusters.
  if (g.num_invariants() > 0) {
    const auto num_inv = static_cast<size_t>(g.num_invariants());
    scratch.used.assign(num_inv * banks, 0);
    scratch.any_use.assign(num_inv, 0);
    for (NodeId u = 0; u < g.NumSlots(); ++u) {
      if (!g.IsAlive(u) || !sched.IsScheduled(u)) continue;
      const Node& n = g.node(u);
      for (std::int32_t inv : g.InvariantUses(u)) {
        scratch.any_use[static_cast<size_t>(inv)] = 1;
        const BankId bank = ReadBank(n.op, sched.ClusterOf(u), rf);
        scratch.used[static_cast<size_t>(inv) * banks + bank_index(bank)] = 1;
      }
    }
    for (size_t inv = 0; inv < num_inv; ++inv) {
      if (!scratch.any_use[inv]) continue;
      char* used = scratch.used.data() + inv * banks;
      // Master copy in the shared bank for organizations that have one.
      if (rf.HasSharedBank()) used[0] = 1;
      for (size_t b = 0; b < banks; ++b) {
        if (!used[b]) continue;
        long* per_row = bank_rows(b);
        for (int r = 0; r < ii; ++r) ++per_row[r];
      }
    }
  }

  report.shared_maxlive =
      static_cast<int>(*std::max_element(bank_rows(0), bank_rows(0) + ii));
  for (int c = 0; c < num_clusters; ++c) {
    const long* rows = bank_rows(static_cast<size_t>(c) + 1);
    report.cluster_maxlive[static_cast<size_t>(c)] =
        static_cast<int>(*std::max_element(rows, rows + ii));
  }
}

}  // namespace hcrf::sched
