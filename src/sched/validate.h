// Ground-truth checker for modulo schedules. Every schedule accepted by a
// scheduler in this library must pass Validate; the test suite enforces
// this across the whole workload and all RF organizations.
//
// Checked invariants:
//  1. Dependences: cycle(src) + latency(e) <= cycle(dst) + distance(e)*II
//     for every alive edge.
//  2. Resources: rebuilding a modulo reservation table from scratch admits
//     every placement (FUs, memory ports, lp/sp transfer ports, buses,
//     unpipelined occupancy).
//  3. Bank consistency: for every flow edge the producer's value lives in
//     the bank the consumer reads from (communication ops must have been
//     inserted wherever the organization requires them).
//  4. Capacity: MaxLive of every bank does not exceed its register count.
//  5. Completeness: every alive node is scheduled and every node's cluster
//     index is within range.
#pragma once

#include <string>

#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "sched/mrt.h"
#include "sched/schedule.h"

namespace hcrf::sched {

struct ValidationResult {
  bool ok = true;
  std::string error;  ///< First violated invariant, human readable.
};

ValidationResult Validate(const DDG& g, const PartialSchedule& sched,
                          const MachineConfig& m,
                          const LatencyOverrides& overrides = {});

/// The tables Validate rebuilds from scratch, kept by a caller that
/// validates often (the engine checks every scheduled II attempt).
struct ValidateScratch {
  ModuloReservationTable mrt;
  PressureScratch pressure;
  PressureReport report;
};

/// Validate reusing `scratch`: allocates nothing on a valid schedule once
/// the scratch has grown to the graph, machine and II.
ValidationResult Validate(const DDG& g, const PartialSchedule& sched,
                          const MachineConfig& m,
                          const LatencyOverrides& overrides,
                          ValidateScratch& scratch);

}  // namespace hcrf::sched
