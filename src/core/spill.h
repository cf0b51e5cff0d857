// Integrated register-spilling engine (paper Section 5): watches bank
// pressure as the schedule grows and splits the most profitable lifetimes
// when a bank exceeds its capacity.
//
// Spill destination depends on the organization: cluster banks of
// hierarchical organizations spill into the shared bank (StoreR/LoadR
// copies, free of memory traffic); the shared bank and the banks of
// monolithic / pure clustered organizations spill to memory (Load/Store
// with a dedicated spill array). Loop invariants are un-pinned from an
// overflowing bank by rematerializing per-use reloads.
//
// The victim is the paper's choice: the legal lifetime with the largest
// length per use (long, rarely read values free the most registers per
// added memory/copy op). Node creation goes through the NodePlacer so
// budget accounting stays with the engine driver.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/comm_rewrite.h"
#include "core/instrument.h"
#include "core/sched_state.h"
#include "sched/banks.h"
#include "sched/lifetime.h"

namespace hcrf::core {

/// Memory "array" ids used for spill slots; high enough to never collide
/// with workload arrays.
inline constexpr std::int32_t kSpillArrayBase = 1 << 20;

class SpillEngine {
 public:
  SpillEngine(SchedState& st, NodePlacer& placer, Instrumentation& instr)
      : st_(st), placer_(placer), instr_(instr) {}

  /// Forgets all spill decisions (fresh II attempt).
  void Reset();

  /// Checks every bounded bank against its MaxLive and spills while over.
  void CheckAndInsert();

  /// Re-places every reload-style copy (spill loads, LoadR) at the latest
  /// feasible slot inside its dependence window. Ejection churn can strand
  /// a reload far from the consumers it feeds, which recreates exactly the
  /// long register lifetime the spill was meant to remove; sinking is cheap
  /// and always legal (the old slot stays feasible).
  void SinkReloads();

 private:
  bool SpillFromBank(sched::BankId bank, const sched::PressureReport& pr);
  bool SpillInvariantFromBank(sched::BankId bank);

  bool IsSpilled(NodeId v) const {
    return static_cast<size_t>(v) < spilled_.size() &&
           spilled_[static_cast<size_t>(v)] != 0;
  }
  /// Index of (invariant, bank) in spilled_invariants_.
  size_t InvariantSlot(std::int32_t inv, sched::BankId bank) const {
    const int bank_index = bank == sched::kSharedBank ? 0 : bank + 1;
    return static_cast<size_t>(inv) * static_cast<size_t>(st_.m.rf.clusters + 1) +
           static_cast<size_t>(bank_index);
  }

  SchedState& st_;
  NodePlacer& placer_;
  Instrumentation& instr_;

  /// Flags, reset per attempt in place: values spilled (by node id) and
  /// invariants un-pinned from a bank (by InvariantSlot).
  std::vector<char> spilled_;
  std::vector<char> spilled_invariants_;
  std::int32_t next_spill_array_ = kSpillArrayBase;

  // Scratch of one spill decision, kept so steady-state attempts allocate
  // nothing.
  std::vector<Edge> consumers_;
  std::vector<std::pair<int, NodeId>> reload_by_distance_;
  std::vector<NodeId> users_;
  /// Reference-path report (tracker detached).
  sched::PressureScratch pressure_scratch_;
  sched::PressureReport reference_report_;
};

}  // namespace hcrf::core
