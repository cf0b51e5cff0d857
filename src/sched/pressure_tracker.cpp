#include "sched/pressure_tracker.h"

#include <algorithm>

#include "core/check.h"

namespace hcrf::sched {

PressureTracker::~PressureTracker() { Detach(); }

void PressureTracker::Attach(DDG& g, const PartialSchedule& sched,
                             const MachineConfig& m,
                             const LatencyOverrides& overrides) {
  Detach();
  g_ = &g;
  sched_ = &sched;
  m_ = &m;
  overrides_ = &overrides;
  ii_ = sched.ii();
  has_shared_ = m.rf.HasSharedBank();

  // Re-zero in place (Attach runs once per II attempt; reusing the buffers
  // keeps the attempt loop free of vector-of-vector reallocation).
  const size_t banks = static_cast<size_t>(m.rf.clusters) + 1;
  num_banks_ = banks;
  rows_.assign(banks * static_cast<size_t>(ii_), 0);
  uniform_.assign(banks, 0);
  pinned_.assign(banks, 0);
  row_max_.assign(banks, 0);
  row_dirty_.assign(banks, 0);

  const size_t slots = static_cast<size_t>(g.NumSlots());
  contrib_.assign(slots, Contribution{});
  node_dirty_.assign(slots, 0);
  dirty_nodes_.clear();
  if (inv_reads_.size() < slots) inv_reads_.resize(slots);
  for (InvReads& snap : inv_reads_) {
    snap.bank_index = -1;
    snap.invs.clear();
  }
  inv_bank_readers_.assign(static_cast<size_t>(g.num_invariants()) * banks,
                           0);
  inv_any_readers_.assign(static_cast<size_t>(g.num_invariants()), 0);

  g.SetListener(this);

  // Fold in anything already scheduled (a fresh attempt has nothing, but
  // Attach makes no assumption).
  for (NodeId u = 0; u < g.NumSlots(); ++u) {
    if (!g.IsAlive(u) || !sched.IsScheduled(u)) continue;
    Refresh(u);
    AddInvariantReads(u);
  }
}

void PressureTracker::Detach() {
  if (g_ != nullptr && g_->listener() == this) g_->SetListener(nullptr);
  g_ = nullptr;
  sched_ = nullptr;
  m_ = nullptr;
  overrides_ = nullptr;
}

void PressureTracker::GrowSlots(NodeId u) {
  contrib_.resize(static_cast<size_t>(u) + 1);
  node_dirty_.resize(contrib_.size(), 0);
  if (inv_reads_.size() < contrib_.size()) inv_reads_.resize(contrib_.size());
}

void PressureTracker::AddContribution(const Contribution& c, int sign) {
  const size_t b = static_cast<size_t>(c.bank_index);
  const int len = c.end - c.start;
  if (len <= 0) return;
  uniform_[b] += sign * static_cast<long>(len / ii_);
  const int rem = len % ii_;
  if (rem > 0) {
    long* rows = BankRows(b);
    for (int cyc = c.start; cyc < c.start + rem; ++cyc) {
      rows[RowOf(cyc)] += sign;
    }
    row_dirty_[b] = 1;
  }
}

void PressureTracker::Refresh(NodeId u) {
  EnsureSlot(u);
  Contribution& c = contrib_[static_cast<size_t>(u)];
  if (c.active) {
    AddContribution(c, -1);
    c.active = false;
  }
  if (!g_->IsAlive(u) || !sched_->IsScheduled(u)) return;
  const Node& n = g_->node(u);
  if (!DefinesValue(n.op)) return;

  const RFConfig& rf = m_->rf;
  const BankId bank = DefBank(n.op, sched_->ClusterOf(u), rf);
  // Mirrors ComputePressure: hierarchical shared-bank values are deposited
  // on arrival (writeback decoupling), first-level values at issue.
  int start = sched_->CycleOf(u);
  if (bank == kSharedBank && rf.IsHierarchical()) {
    start += ProducerLatency(*g_, u, m_->lat, *overrides_);
  }
  int end = start;
  int uses = 0;
  for (const Edge& e : g_->OutEdges(u)) {
    if (e.kind != DepKind::kFlow || !sched_->IsScheduled(e.dst)) continue;
    ++uses;
    end = std::max(end, sched_->CycleOf(e.dst) + e.distance * ii_);
  }
  c.start = start;
  c.end = end;
  c.uses = uses;
  c.bank_index = static_cast<int>(BankIndex(bank));
  c.active = true;
  AddContribution(c, +1);
}

void PressureTracker::MarkPlacementDirty(NodeId u) {
  MarkDirty(u);
  for (const Edge& e : g_->InEdges(u)) {
    if (e.kind == DepKind::kFlow && e.src != u) MarkDirty(e.src);
  }
}

void PressureTracker::FlushDirty() {
  for (size_t i = 0; i < dirty_nodes_.size(); ++i) {
    const NodeId u = dirty_nodes_[i];
    node_dirty_[static_cast<size_t>(u)] = 0;
    Refresh(u);
  }
  dirty_nodes_.clear();
}

void PressureTracker::OnPlaced(NodeId u) {
  if (!attached()) return;
  MarkPlacementDirty(u);
  AddInvariantReads(u);
}

void PressureTracker::OnUnplaced(NodeId u) {
  if (!attached()) return;
  MarkPlacementDirty(u);
  RemoveInvariantReads(u);
}

void PressureTracker::OnFlowEdgeAdded(const Edge& e) { MarkDirty(e.src); }

void PressureTracker::OnFlowEdgeRemoved(const Edge& e) { MarkDirty(e.src); }

void PressureTracker::OnNodeRemoved(NodeId v) {
  // The dead node's contribution is dropped at the next flush (Refresh on
  // a tombstone subtracts and deactivates); its detached producer edges
  // were notified individually by RemoveNode.
  MarkDirty(v);
  RemoveInvariantReads(v);
}

void PressureTracker::BumpInvariant(std::int32_t inv, size_t bank_index,
                                    int delta) {
  if (static_cast<size_t>(inv) >= inv_any_readers_.size()) return;
  int& bank_readers =
      inv_bank_readers_[static_cast<size_t>(inv) * num_banks_ + bank_index];
  const int was_bank = bank_readers;
  bank_readers += delta;
  int& any = inv_any_readers_[static_cast<size_t>(inv)];
  const int was_any = any;
  any += delta;

  // A cluster bank (or the shared bank of an organization without the
  // master-copy rule, which cannot occur today) is pinned while it has a
  // direct reader; the shared master copy is pinned while the invariant
  // has any reader at all.
  if (bank_index != 0 || !has_shared_) {
    if (was_bank == 0 && bank_readers > 0) ++pinned_[bank_index];
    if (was_bank > 0 && bank_readers == 0) --pinned_[bank_index];
  }
  if (has_shared_) {
    if (was_any == 0 && any > 0) ++pinned_[0];
    if (was_any > 0 && any == 0) --pinned_[0];
  }
}

void PressureTracker::AddInvariantReads(NodeId u) {
  EnsureSlot(u);
  const std::span<const std::int32_t> uses = g_->InvariantUses(u);
  if (uses.empty()) return;
  InvReads& snap = inv_reads_[static_cast<size_t>(u)];
  snap.bank_index = static_cast<int>(
      BankIndex(ReadBank(g_->node(u).op, sched_->ClusterOf(u), m_->rf)));
  snap.invs.assign(uses.begin(), uses.end());
  for (std::int32_t inv : snap.invs) {
    BumpInvariant(inv, static_cast<size_t>(snap.bank_index), +1);
  }
}

void PressureTracker::RemoveInvariantReads(NodeId u) {
  EnsureSlot(u);
  InvReads& snap = inv_reads_[static_cast<size_t>(u)];
  if (snap.bank_index < 0) return;
  for (std::int32_t inv : snap.invs) {
    BumpInvariant(inv, static_cast<size_t>(snap.bank_index), -1);
  }
  snap.bank_index = -1;
  snap.invs.clear();
}

void PressureTracker::ResyncInvariantReads(NodeId u) {
  if (!attached()) return;
  RemoveInvariantReads(u);
  if (g_->IsAlive(u) && sched_->IsScheduled(u)) AddInvariantReads(u);
}

int PressureTracker::MaxLive(BankId bank) {
  FlushDirty();
  const size_t b = BankIndex(bank);
  HCRF_CHECK(b < num_banks_,
             "PressureTracker::MaxLive: bank %d outside the %zu banks of "
             "the attached organization",
             bank, num_banks_);
  if (row_dirty_[b]) {
    const long* rows = BankRows(b);
    row_max_[b] = *std::max_element(rows, rows + ii_);
    row_dirty_[b] = 0;
  }
  return static_cast<int>(row_max_[b] + uniform_[b] +
                          static_cast<long>(pinned_[b]));
}

const PressureReport& PressureTracker::Report() {
  FlushDirty();
  PressureReport& report = report_;
  report.cluster_maxlive.resize(static_cast<size_t>(m_->rf.clusters));
  report.values.clear();
  for (int c = 0; c < m_->rf.clusters; ++c) {
    report.cluster_maxlive[static_cast<size_t>(c)] = MaxLive(c);
  }
  report.shared_maxlive = MaxLive(kSharedBank);
  // contrib_ is active exactly for the nodes ComputePressure emits a
  // ValueLifetime for, and slots are id-ordered, so the list comes out in
  // the reference order.
  const NodeId slots = g_->NumSlots();
  for (NodeId u = 0; u < slots && static_cast<size_t>(u) < contrib_.size();
       ++u) {
    const Contribution& c = contrib_[static_cast<size_t>(u)];
    if (!c.active) continue;
    report.values.push_back(
        ValueLifetime{u, BankOf(c.bank_index), c.start, c.end, c.uses});
  }
  return report;
}

void PressureTracker::CrossValidate(const char* where) {
  HCRF_CHECK(attached(), "PressureTracker::CrossValidate(%s): not attached",
             where);
  const PressureReport pr = ComputePressure(*g_, *sched_, *m_, *overrides_);
  const PressureReport& got = Report();
  HCRF_CHECK(got.shared_maxlive == pr.shared_maxlive,
             "incremental pressure tracker diverged at %s: shared bank "
             "MaxLive %d, ComputePressure says %d (graph '%s', II=%d)",
             where, got.shared_maxlive, pr.shared_maxlive, g_->name().c_str(),
             ii_);
  for (int c = 0; c < m_->rf.clusters; ++c) {
    HCRF_CHECK(got.cluster_maxlive[static_cast<size_t>(c)] ==
                   pr.cluster_maxlive[static_cast<size_t>(c)],
               "incremental pressure tracker diverged at %s: cluster %d "
               "MaxLive %d, ComputePressure says %d (graph '%s', II=%d)",
               where, c, got.cluster_maxlive[static_cast<size_t>(c)],
               pr.cluster_maxlive[static_cast<size_t>(c)], g_->name().c_str(),
               ii_);
  }
  HCRF_CHECK(got.values.size() == pr.values.size(),
             "incremental pressure tracker diverged at %s: %zu tracked "
             "value lifetimes, ComputePressure says %zu (graph '%s', II=%d)",
             where, got.values.size(), pr.values.size(), g_->name().c_str(),
             ii_);
  for (size_t i = 0; i < got.values.size(); ++i) {
    const ValueLifetime& a = got.values[i];
    const ValueLifetime& b = pr.values[i];
    HCRF_CHECK(a.def == b.def && a.bank == b.bank && a.start == b.start &&
                   a.end == b.end && a.uses == b.uses,
               "incremental pressure tracker diverged at %s: value %zu is "
               "def %d bank %d [%d,%d) uses %d, ComputePressure says def %d "
               "bank %d [%d,%d) uses %d (graph '%s', II=%d)",
               where, i, a.def, a.bank, a.start, a.end, a.uses, b.def, b.bank,
               b.start, b.end, b.uses, g_->name().c_str(), ii_);
  }
}

}  // namespace hcrf::sched
