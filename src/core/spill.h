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
#include <set>
#include <utility>

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

  SchedState& st_;
  NodePlacer& placer_;
  Instrumentation& instr_;

  std::set<NodeId> spilled_;
  std::set<std::pair<std::int32_t, sched::BankId>> spilled_invariants_;
  std::int32_t next_spill_array_ = kSpillArrayBase;
};

}  // namespace hcrf::core
