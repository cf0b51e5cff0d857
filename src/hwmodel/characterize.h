// End-to-end hardware characterization of a machine configuration:
// bank timings/areas -> cycle time -> rescaled latencies. This produces
// exactly the columns of the paper's Table 5.
#pragma once

#include "hwmodel/clock.h"
#include "hwmodel/rf_timing.h"
#include "machine/machine_config.h"

namespace hcrf::hw {

/// Hardware view of one machine configuration (one row of Table 5).
struct Characterization {
  RFConfig rf;
  BankCharacteristics cluster_bank;  ///< Zeros when there are no clusters.
  BankCharacteristics shared_bank;   ///< Zeros when there is no shared bank.
  double critical_access_ns = 0.0;   ///< First-level access (sets the clock).
  double total_area_mlambda2 = 0.0;  ///< x * cluster area + shared area.
  int logic_depth_fo4 = 0;
  double clock_ns = 0.0;
  LatencyTable lat;  ///< Latencies in cycles of this configuration's clock.
};

/// Characterizes `m.rf` on `m`'s resource shape. Register counts must be
/// bounded (static "infinite register" experiments never ask for hardware
/// numbers); throws std::invalid_argument otherwise.
Characterization Characterize(const MachineConfig& m,
                              RFModelMode mode = RFModelMode::kAnalytic);

/// Returns a copy of `m` with clock_ns and the latency table replaced by
/// the characterization's values (the form the scheduler consumes). A
/// machine with an unbounded register count has no hardware realization
/// and comes back unchanged.
MachineConfig ApplyCharacterization(const MachineConfig& m,
                                    RFModelMode mode = RFModelMode::kAnalytic);

}  // namespace hcrf::hw
