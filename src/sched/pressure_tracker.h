// Incremental register-pressure tracker: maintains per-bank MaxLive of a
// partial modulo schedule under place / eject / spill / edge-rewrite
// deltas, so the spill engine's capacity checks are O(1)-amortized instead
// of rerunning ComputePressure (O(nodes + edges + II)) over all values.
//
// Invariant mirrored from lifetime.cpp::ComputePressure: the pressure of a
// bank at kernel row r is
//
//     sum over values v in the bank of   floor(len(v)/II)
//                                      + [r in the len(v) mod II rows after
//                                         start(v)]
//   + one register per loop invariant read from the bank (plus the shared
//     master copy in organizations with a shared bank),
//
// and MaxLive is the maximum over rows. The tracker splits this into three
// per-bank components it can update independently:
//   rows_[b][r]   the distance-dependent `len mod II` part, stored as
//                 differences of adjacent rows, so adding a value's rows
//                 (at most two runs, modulo II) touches at most four cells,
//   uniform_[b]   whole-kernel registers (the floor(len/II) wraps),
//   pinned_[b]    invariant pins,
// so MaxLive(b) = max_r rows_[b][r] + uniform_[b] + pinned_[b], with the
// row maximum cached per bank and recomputed lazily (one O(II) prefix sum)
// when rows changed. Between recomputes the cached maximum plus one per
// value added is an upper bound, which answers most capacity checks.
//
// A value's lifetime depends only on its producer's placement and the
// reads of its scheduled flow consumers. A placement change marks the node
// itself dirty; the queries re-derive each dirty node's contribution once
// (recompute from the graph; only a value whose start, end or bank moved
// is subtracted and added back). This lazy coalescing is what makes the
// force-and-eject churn cheap: a node placed and ejected five times
// between two capacity checks is refreshed once, not ten times. A read
// that appears or goes away (a consumer placed or ejected, a flow edge to
// a scheduled consumer added or removed) updates the producer's clean
// value in O(1) instead: a new read can only extend the value to itself,
// and only the loss of a read at the value's end marks it dirty. A
// consumer that is not scheduled reads nothing, so edges to it cost
// nothing.
//
// Each bank keeps a list of its live values, so the spill engine ranks the
// victims of one bank without a pass over every slot, and the per-bank
// reader counts of every invariant answer its invariant choice in O(1) per
// invariant.
//
// Placement deltas arrive through SchedState's tracked Assign/Unplace;
// graph deltas (communication chains, spill reroutes, tombstoning) arrive
// through the DdgListener hooks; invariant-use edits (the spill engine
// un-pins invariants) arrive through ResyncInvariantReads and are applied
// eagerly (they are O(uses) counter bumps).
//
// CrossValidate() recomputes the ground truth with ComputePressure and
// HCRF_CHECKs both agree; the spill engine runs it in debug builds (and
// when HCRF_CHECK_PRESSURE is set) on every capacity check.
#pragma once

#include <vector>

#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/banks.h"
#include "sched/lifetime.h"
#include "sched/schedule.h"

namespace hcrf::sched {

class PressureTracker final : public DdgListener {
 public:
  PressureTracker() = default;
  ~PressureTracker() override;

  // Non-copyable: installed as a graph listener by address.
  PressureTracker(const PressureTracker&) = delete;
  PressureTracker& operator=(const PressureTracker&) = delete;

  /// Starts tracking a fresh attempt: clears the state of `g`'s slots (a
  /// slot the attempt adds later is cleared when it first appears), sizes
  /// the per-bank rows for `sched.ii()`, installs itself as `g`'s mutation
  /// listener and folds in everything already scheduled (normally
  /// nothing). All four references must outlive the tracker or the next
  /// Attach/Detach.
  void Attach(DDG& g, const PartialSchedule& sched, const MachineConfig& m,
              const LatencyOverrides& overrides);

  /// Stops tracking and uninstalls the graph listener. Safe to call when
  /// already detached. Must be called before the tracked graph or schedule
  /// is moved away / destroyed.
  void Detach();

  bool attached() const { return g_ != nullptr; }

  /// Placement deltas (call after PartialSchedule::Assign / Unassign;
  /// `cycle` is the cycle u was placed at).
  void OnPlaced(NodeId u);
  void OnUnplaced(NodeId u, int cycle);

  /// Re-derives `u`'s invariant-read pins after DDG::RemoveInvariantUse
  /// changed its uses (the spill engine's invariant un-pinning).
  void ResyncInvariantReads(NodeId u);

  // DdgListener.
  void OnFlowEdgeAdded(const Edge& e) override;
  void OnFlowEdgeRemoved(const Edge& e) override;
  void OnNodeRemoved(NodeId v) override;

  /// Current MaxLive of a bank (kSharedBank or a cluster index), equal to
  /// ComputePressure().MaxLiveOf(bank) at all times. Amortized O(1) per
  /// mutation; a query pays O(dirty nodes) + O(II) for banks whose rows
  /// changed since the last query.
  int MaxLive(BankId bank);

  /// MaxLive(bank) > capacity. A bank whose rows changed since its last
  /// MaxLive is first judged by an upper bound on its row maximum (the
  /// cached one plus one per value added since), so a bank with room to
  /// spare answers without the O(II) recompute.
  bool Exceeds(BankId bank, long capacity);

  /// Calls `visit(const ValueLifetime&)` once for every value of `bank`:
  /// the lifetimes ComputePressure would list for the bank, in no
  /// particular order. O(dirty nodes + values of the bank), no edge walk.
  /// `visit` must not mutate the graph or the schedule. The spill engine
  /// ranks its victims here.
  template <class Visit>
  void ForEachValue(BankId bank, Visit&& visit) {
    FlushDirty();
    for (NodeId u = value_head_[BankIndex(bank)]; u != kNoNode;) {
      const Contribution& c = contrib_[static_cast<size_t>(u)];
      visit(ValueLifetime{u, bank, c.start, c.end, c.uses});
      u = c.next;
    }
  }

  /// Scheduled nodes that read invariant `inv` from `bank` (the count
  /// behind the bank's pin for it). O(1), kept eagerly.
  int InvariantReaders(std::int32_t inv, BankId bank) const {
    return inv_bank_readers_[static_cast<size_t>(inv) * num_banks_ +
                             BankIndex(bank)];
  }

  /// Materializes the full PressureReport (per-bank MaxLive plus every
  /// ValueLifetime in def order) from tracked state: O(slots), no edge
  /// walk. Field-for-field equal to ComputePressure(); CrossValidate and
  /// the tests compare the two. The report is a buffer of the tracker's,
  /// refilled in place by every call: the reference is valid until the
  /// next Report or Attach.
  const PressureReport& Report();

  /// Recomputes the ground truth with ComputePressure and HCRF_CHECKs that
  /// every bank and every value lifetime agrees; `where` names the call
  /// site in the failure message.
  void CrossValidate(const char* where);

 private:
  /// One node's currently-added pressure contribution (bank/start/end/uses
  /// mirror the ValueLifetime ComputePressure would emit for the node), its
  /// links in its bank's value list and its dirty mark.
  struct Contribution {
    int start = 0;
    int end = 0;
    int uses = 0;
    int bank_index = -1;  ///< -1: the node defines no scheduled value.
    NodeId prev = kNoNode;
    NodeId next = kNoNode;
    bool dirty = false;

    bool active() const { return bank_index >= 0; }
  };
  /// One node's currently-added invariant pins (bank < 0 = none).
  struct InvReads {
    int bank_index = -1;
    std::vector<std::int32_t> invs;
  };

  size_t BankIndex(BankId bank) const {
    return static_cast<size_t>(bank == kSharedBank ? 0 : bank + 1);
  }
  BankId BankOf(int bank_index) const {
    return bank_index == 0 ? kSharedBank : bank_index - 1;
  }
  int RowOf(int cycle) const {
    const int r = cycle % ii_;
    return r < 0 ? r + ii_ : r;
  }
  /// Exact row maximum of a bank, recomputed when its rows changed.
  long RowMax(size_t bank_index);
  /// Row 0 of a bank in rows_.
  long* BankRows(size_t bank_index) {
    return rows_.data() + bank_index * static_cast<size_t>(ii_);
  }
  static void ClearInvReads(InvReads& snap) {
    snap.bank_index = -1;
    snap.invs.clear();
  }
  void EnsureSlot(NodeId u) {
    if (static_cast<size_t>(u) >= contrib_.size()) GrowSlots(u);
  }
  void GrowSlots(NodeId u);

  void MarkDirty(NodeId u) {
    EnsureSlot(u);
    Contribution& c = contrib_[static_cast<size_t>(u)];
    if (!c.dirty) {
      c.dirty = true;
      dirty_nodes_.push_back(u);
    }
  }
  /// A scheduled consumer's read of p's value at cycle `read` appeared /
  /// went away: O(1) on a clean value (a read past its end extends it; a
  /// lost read at its end marks it dirty), nothing on a dirty one.
  void ReadAdded(NodeId p, int read);
  void ReadRemoved(NodeId p, int read);
  /// Re-derives every dirty node's contribution.
  void FlushDirty();

  /// Recompute of one node's value contribution; rows and the bank's value
  /// list change only when its start, end or bank moved.
  void Refresh(NodeId u);
  /// Adds `sign` to every register row of the value [start, end) of a bank.
  void AddRows(int bank_index, int start, int end, int sign);
  void LinkValue(NodeId u, int bank_index);
  void UnlinkValue(NodeId u);

  void AddInvariantReads(NodeId u);
  void RemoveInvariantReads(NodeId u);
  void BumpInvariant(std::int32_t inv, size_t bank_index, int delta);

  DDG* g_ = nullptr;
  const PartialSchedule* sched_ = nullptr;
  const MachineConfig* m_ = nullptr;
  const LatencyOverrides* overrides_ = nullptr;
  int ii_ = 1;
  bool has_shared_ = false;

  size_t num_banks_ = 0;
  std::vector<long> rows_;          // [bank_index * ii + row], differences
  std::vector<long> uniform_;       // [bank_index]
  std::vector<int> pinned_;         // [bank_index]
  std::vector<long> row_max_;       // [bank_index], exact unless dirty,
                                    // then an upper bound
  std::vector<char> row_dirty_;     // [bank_index]
  std::vector<NodeId> value_head_;  // [bank_index], head of its value list

  std::vector<Contribution> contrib_;  // [node]
  std::vector<NodeId> dirty_nodes_;    // marked, not yet refreshed
  std::vector<InvReads> inv_reads_;    // [node]
  std::vector<int> inv_bank_readers_;  // [inv * num_banks_ + bank_index]
  std::vector<int> inv_any_readers_;   // [inv]
  PressureReport report_;              // Report()'s buffer
};

}  // namespace hcrf::sched
