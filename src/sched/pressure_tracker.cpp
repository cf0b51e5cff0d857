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
  value_head_.assign(banks, kNoNode);

  // Per-node state: only the slots of this graph are reset here. A thread
  // that once scheduled a larger graph keeps a longer inv_reads_, whose
  // tail is stale until GrowSlots clears it slot by slot as the attempt
  // adds nodes.
  const size_t slots = static_cast<size_t>(g.NumSlots());
  contrib_.assign(slots, Contribution{});
  dirty_nodes_.clear();
  if (inv_reads_.size() < slots) inv_reads_.resize(slots);
  for (size_t u = 0; u < slots; ++u) ClearInvReads(inv_reads_[u]);
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
  const size_t first = contrib_.size();
  contrib_.resize(static_cast<size_t>(u) + 1);
  if (inv_reads_.size() < contrib_.size()) inv_reads_.resize(contrib_.size());
  // Slots past the attached graph may still hold an earlier attempt's pins.
  for (size_t v = first; v < contrib_.size(); ++v) {
    ClearInvReads(inv_reads_[v]);
  }
}

void PressureTracker::AddRows(int bank_index, int start, int end, int sign) {
  const int len = end - start;
  if (len <= 0) return;
  const auto b = static_cast<size_t>(bank_index);
  uniform_[b] += sign * static_cast<long>(len / ii_);
  const int rem = len % ii_;
  if (rem == 0) return;
  // The rem rows from start's row on, modulo II: one run, or a run to the
  // last row and one from row 0. rows_ holds differences, so a run
  // [lo, hi) is +sign at lo and -sign at hi.
  long* diff = BankRows(b);
  const int first = RowOf(start);
  const int stop = first + rem;
  diff[first] += sign;
  if (stop < ii_) {
    diff[stop] -= sign;
  } else if (stop > ii_) {
    diff[0] += sign;
    diff[stop - ii_] -= sign;
  }
  // Each row gains at most `sign`, so the cached maximum stays a bound.
  if (sign > 0) row_max_[b] += sign;
  row_dirty_[b] = 1;
}

void PressureTracker::LinkValue(NodeId u, int bank_index) {
  Contribution& c = contrib_[static_cast<size_t>(u)];
  NodeId& head = value_head_[static_cast<size_t>(bank_index)];
  c.prev = kNoNode;
  c.next = head;
  if (head != kNoNode) contrib_[static_cast<size_t>(head)].prev = u;
  head = u;
}

void PressureTracker::UnlinkValue(NodeId u) {
  const Contribution& c = contrib_[static_cast<size_t>(u)];
  if (c.prev == kNoNode) {
    value_head_[static_cast<size_t>(c.bank_index)] = c.next;
  } else {
    contrib_[static_cast<size_t>(c.prev)].next = c.next;
  }
  if (c.next != kNoNode) contrib_[static_cast<size_t>(c.next)].prev = c.prev;
}

void PressureTracker::Refresh(NodeId u) {
  EnsureSlot(u);
  int bank_index = -1;
  int start = 0;
  int end = 0;
  int uses = 0;
  if (g_->IsAlive(u) && sched_->IsScheduled(u)) {
    const Node& n = g_->node(u);
    if (DefinesValue(n.op)) {
      const RFConfig& rf = m_->rf;
      const BankId bank = DefBank(n.op, sched_->ClusterOf(u), rf);
      bank_index = static_cast<int>(BankIndex(bank));
      // Mirrors ComputePressure: hierarchical shared-bank values are
      // deposited on arrival (writeback decoupling), first-level values at
      // issue.
      start = sched_->CycleOf(u);
      if (bank == kSharedBank && rf.IsHierarchical()) {
        start += ProducerLatency(*g_, u, m_->lat, *overrides_);
      }
      end = start;
      for (const Edge& e : g_->OutEdges(u)) {
        if (e.kind != DepKind::kFlow || !sched_->IsScheduled(e.dst)) continue;
        ++uses;
        end = std::max(end, sched_->CycleOf(e.dst) + e.distance * ii_);
      }
    }
  }
  Contribution& c = contrib_[static_cast<size_t>(u)];
  // A value whose rows did not move (a consumer placed or ejected inside
  // its lifetime, an edge rewired to a copy read no later) only updates
  // its use count.
  if (bank_index >= 0 && bank_index == c.bank_index && start == c.start &&
      end == c.end) {
    c.uses = uses;
    return;
  }
  if (c.active()) {
    AddRows(c.bank_index, c.start, c.end, -1);
    if (bank_index != c.bank_index) UnlinkValue(u);
  }
  if (bank_index >= 0) {
    AddRows(bank_index, start, end, +1);
    if (bank_index != c.bank_index) LinkValue(u, bank_index);
  }
  c.start = start;
  c.end = end;
  c.uses = uses;
  c.bank_index = bank_index;
}

void PressureTracker::ReadAdded(NodeId p, int read) {
  if (static_cast<size_t>(p) >= contrib_.size()) return;  // never placed
  Contribution& c = contrib_[static_cast<size_t>(p)];
  // A dirty value is re-derived at the next flush; a clean inactive one
  // has no value for the read to extend.
  if (c.dirty || !c.active()) return;
  ++c.uses;
  if (read > c.end) {
    AddRows(c.bank_index, c.start, c.end, -1);
    AddRows(c.bank_index, c.start, read, +1);
    c.end = read;
  }
}

void PressureTracker::ReadRemoved(NodeId p, int read) {
  if (static_cast<size_t>(p) >= contrib_.size()) return;
  Contribution& c = contrib_[static_cast<size_t>(p)];
  if (c.dirty || !c.active()) return;
  --c.uses;
  // The value may have lost its last read: re-derive its end.
  if (read >= c.end) MarkDirty(p);
}

void PressureTracker::FlushDirty() {
  for (size_t i = 0; i < dirty_nodes_.size(); ++i) {
    const NodeId u = dirty_nodes_[i];
    contrib_[static_cast<size_t>(u)].dirty = false;
    Refresh(u);
  }
  dirty_nodes_.clear();
}

void PressureTracker::OnPlaced(NodeId u) {
  if (!attached()) return;
  // u's own value is re-derived (marked first, so a self read is too);
  // each flow producer gains a read at u's cycle.
  MarkDirty(u);
  const int cycle = sched_->CycleOf(u);
  for (const Edge& e : g_->InEdges(u)) {
    if (e.kind == DepKind::kFlow) ReadAdded(e.src, cycle + e.distance * ii_);
  }
  AddInvariantReads(u);
}

void PressureTracker::OnUnplaced(NodeId u, int cycle) {
  if (!attached()) return;
  MarkDirty(u);
  for (const Edge& e : g_->InEdges(u)) {
    if (e.kind == DepKind::kFlow) ReadRemoved(e.src, cycle + e.distance * ii_);
  }
  RemoveInvariantReads(u);
}

void PressureTracker::OnFlowEdgeAdded(const Edge& e) {
  // A read by an unscheduled consumer changes no value.
  if (!sched_->IsScheduled(e.dst)) return;
  ReadAdded(e.src, sched_->CycleOf(e.dst) + e.distance * ii_);
}

void PressureTracker::OnFlowEdgeRemoved(const Edge& e) {
  if (!sched_->IsScheduled(e.dst)) return;
  ReadRemoved(e.src, sched_->CycleOf(e.dst) + e.distance * ii_);
}

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
  return static_cast<int>(RowMax(b) + uniform_[b] +
                          static_cast<long>(pinned_[b]));
}

bool PressureTracker::Exceeds(BankId bank, long capacity) {
  FlushDirty();
  const size_t b = BankIndex(bank);
  HCRF_CHECK(b < num_banks_,
             "PressureTracker::Exceeds: bank %d outside the %zu banks of "
             "the attached organization",
             bank, num_banks_);
  const long fixed = uniform_[b] + static_cast<long>(pinned_[b]);
  // The bound settles most checks of a bank with room to spare.
  if (row_max_[b] + fixed <= capacity) return false;
  return RowMax(b) + fixed > capacity;
}

long PressureTracker::RowMax(size_t b) {
  if (row_dirty_[b]) {
    // Rows are the running sums of the differences.
    const long* diff = BankRows(b);
    long row = diff[0];
    long max = row;
    for (int r = 1; r < ii_; ++r) {
      row += diff[r];
      max = std::max(max, row);
    }
    row_max_[b] = max;
    row_dirty_[b] = 0;
  }
  return row_max_[b];
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
    if (!c.active()) continue;
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

  // The spill engine's two direct reads: each bank's value list holds
  // exactly the bank's values, and the per-bank invariant reader counts
  // equal a recount over the scheduled nodes.
  std::vector<long> listed(num_banks_, 0);
  for (size_t b = 0; b < num_banks_; ++b) {
    ForEachValue(BankOf(static_cast<int>(b)), [&](const ValueLifetime& v) {
      const Contribution& c = contrib_[static_cast<size_t>(v.def)];
      HCRF_CHECK(c.active() && static_cast<size_t>(c.bank_index) == b,
                 "incremental pressure tracker diverged at %s: node %d is "
                 "on bank %d's value list (graph '%s', II=%d)",
                 where, v.def, BankOf(static_cast<int>(b)),
                 g_->name().c_str(), ii_);
      ++listed[b];
    });
  }
  for (const ValueLifetime& v : pr.values) --listed[BankIndex(v.bank)];
  for (size_t b = 0; b < num_banks_; ++b) {
    HCRF_CHECK(listed[b] == 0,
               "incremental pressure tracker diverged at %s: bank %d's value "
               "list and ComputePressure differ in length (graph '%s', "
               "II=%d)",
               where, BankOf(static_cast<int>(b)), g_->name().c_str(), ii_);
  }
  std::vector<int> readers(inv_bank_readers_.size(), 0);
  for (NodeId v = 0; v < g_->NumSlots(); ++v) {
    if (!g_->IsAlive(v) || !sched_->IsScheduled(v)) continue;
    const size_t b =
        BankIndex(ReadBank(g_->node(v).op, sched_->ClusterOf(v), m_->rf));
    for (const std::int32_t inv : g_->InvariantUses(v)) {
      ++readers[static_cast<size_t>(inv) * num_banks_ + b];
    }
  }
  for (size_t i = 0; i < readers.size(); ++i) {
    HCRF_CHECK(readers[i] == inv_bank_readers_[i],
               "incremental pressure tracker diverged at %s: invariant %zu "
               "has %d readers on bank %d, the graph says %d (graph '%s', "
               "II=%d)",
               where, i / num_banks_, inv_bank_readers_[i],
               BankOf(static_cast<int>(i % num_banks_)), readers[i],
               g_->name().c_str(), ii_);
  }
}

}  // namespace hcrf::sched
