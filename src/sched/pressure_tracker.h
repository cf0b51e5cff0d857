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
//   rows_[b][r]   the distance-dependent `len mod II` part,
//   uniform_[b]   whole-kernel registers (the floor(len/II) wraps),
//   pinned_[b]    invariant pins,
// so MaxLive(b) = max_r rows_[b][r] + uniform_[b] + pinned_[b], with the
// row maximum cached per bank and recomputed lazily (O(II)) when rows
// changed.
//
// A value's lifetime depends only on its producer's placement and the
// placements of its flow consumers, so every mutation invalidates a known
// set of nodes: the node itself plus its flow producers for placement
// changes, the edge's producer for edge rewires. Mutations only *mark*
// those nodes dirty (O(1) amortized per event); the queries re-derive each
// dirty node's contribution once (subtract cached, recompute from the
// graph, add back). This lazy coalescing is what makes the force-and-eject
// churn cheap: a node placed and ejected five times between two capacity
// checks is refreshed once, not ten times.
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

  /// Starts tracking a fresh attempt: clears all state, sizes the per-bank
  /// rows for `sched.ii()`, installs itself as `g`'s mutation listener and
  /// folds in everything already scheduled (normally nothing). All four
  /// references must outlive the tracker or the next Attach/Detach.
  void Attach(DDG& g, const PartialSchedule& sched, const MachineConfig& m,
              const LatencyOverrides& overrides);

  /// Stops tracking and uninstalls the graph listener. Safe to call when
  /// already detached. Must be called before the tracked graph or schedule
  /// is moved away / destroyed.
  void Detach();

  bool attached() const { return g_ != nullptr; }

  /// Placement deltas (call after PartialSchedule::Assign / Unassign).
  void OnPlaced(NodeId u);
  void OnUnplaced(NodeId u);

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

  /// Materializes the full PressureReport (per-bank MaxLive plus the
  /// ValueLifetime list the spill policy ranks) from tracked state: O(live
  /// values), no edge walk. Field-for-field equal to ComputePressure() —
  /// the spill engine's slow path feeds it to the victim policies, so the
  /// decisions match the reference path's exactly. The report is a buffer
  /// of the tracker's, refilled in place by every call: the reference is
  /// valid until the next Report or Attach.
  const PressureReport& Report();

  /// Recomputes the ground truth with ComputePressure and HCRF_CHECKs that
  /// every bank and every value lifetime agrees; `where` names the call
  /// site in the failure message.
  void CrossValidate(const char* where);

 private:
  /// One value's currently-added pressure contribution (bank/start/end/uses
  /// mirror the ValueLifetime ComputePressure would emit for the node).
  struct Contribution {
    int start = 0;
    int end = 0;
    int uses = 0;
    int bank_index = 0;
    bool active = false;
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
  size_t RowOf(int cycle) const {
    const int r = cycle % ii_;
    return static_cast<size_t>(r < 0 ? r + ii_ : r);
  }
  /// Row 0 of a bank in rows_.
  long* BankRows(size_t bank_index) {
    return rows_.data() + bank_index * static_cast<size_t>(ii_);
  }
  void EnsureSlot(NodeId u) {
    if (static_cast<size_t>(u) >= contrib_.size()) GrowSlots(u);
  }
  void GrowSlots(NodeId u);

  void MarkDirty(NodeId u) {
    EnsureSlot(u);
    if (!node_dirty_[static_cast<size_t>(u)]) {
      node_dirty_[static_cast<size_t>(u)] = 1;
      dirty_nodes_.push_back(u);
    }
  }
  /// Marks `u` and its flow producers (whose lifetimes read from u's
  /// placement) dirty — the invalidation set of a placement change.
  void MarkPlacementDirty(NodeId u);
  /// Re-derives every dirty node's contribution.
  void FlushDirty();

  /// Subtract-recompute-add of one node's value contribution.
  void Refresh(NodeId u);
  void AddContribution(const Contribution& c, int sign);

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
  std::vector<long> rows_;               // [bank_index * ii + row]
  std::vector<long> uniform_;            // [bank_index]
  std::vector<int> pinned_;              // [bank_index]
  std::vector<long> row_max_;            // [bank_index], cached
  std::vector<char> row_dirty_;          // [bank_index]

  std::vector<Contribution> contrib_;  // [node]
  std::vector<char> node_dirty_;       // [node]
  std::vector<NodeId> dirty_nodes_;    // marked, not yet refreshed
  std::vector<InvReads> inv_reads_;    // [node]
  std::vector<int> inv_bank_readers_;  // [inv * num_banks_ + bank_index]
  std::vector<int> inv_any_readers_;   // [inv]
  PressureReport report_;              // Report()'s buffer
};

}  // namespace hcrf::sched
