// The VLIW machine model: functional units, memory ports and per-operation
// latencies (which depend on the register-file configuration through the
// cycle time, see src/hwmodel).
#pragma once

#include <string>

#include "machine/op.h"
#include "machine/rf_config.h"

namespace hcrf {

/// Per-operation latencies (in cycles of the configuration's clock).
///
/// The baseline values are the paper's Section 2.2 numbers for the
/// monolithic S128 clock: add/mul 4, div 17, sqrt 30; memory read hit 2,
/// write 1. For other configurations the hardware model rescales them
/// (Table 5's "Mem/FU latencies" column).
struct LatencyTable {
  int fadd = 4;
  int fmul = 4;
  int fdiv = 17;
  int fsqrt = 30;
  int load_hit = 2;    ///< L1 read hit latency.
  int store = 1;       ///< L1 write (hit) latency.
  int load_miss = 10;  ///< L1 read miss latency, in cycles (10 ns scaled).
  int move = 1;        ///< Inter-cluster Move over a bus.
  int loadr = 1;       ///< Shared bank -> cluster bank.
  int storer = 1;      ///< Cluster bank -> shared bank.

  /// Latency of `op` when it hits in the cache (loads).
  int Of(OpClass op) const {
    switch (op) {
      case OpClass::kFAdd: return fadd;
      case OpClass::kFMul: return fmul;
      case OpClass::kFDiv: return fdiv;
      case OpClass::kFSqrt: return fsqrt;
      case OpClass::kLoad: return load_hit;
      case OpClass::kStore: return store;
      case OpClass::kMove: return move;
      case OpClass::kLoadR: return loadr;
      case OpClass::kStoreR: return storer;
    }
    return 1;
  }

  bool operator==(const LatencyTable&) const = default;
};

/// A complete machine configuration: resources + RF organization + clock.
struct MachineConfig {
  int num_fus = 8;        ///< General-purpose (FP) functional units.
  int num_mem_ports = 4;  ///< Load/store units.
  RFConfig rf = RFConfig::Parse("S128");
  LatencyTable lat;
  /// Cycle time in nanoseconds; filled in by hwmodel::Characterize. The
  /// default corresponds to the paper's S128 baseline clock.
  double clock_ns = 1.181;

  /// Functional units per cluster (all FUs for monolithic organizations).
  int FusPerCluster() const {
    return rf.clusters > 0 ? num_fus / rf.clusters : num_fus;
  }
  /// Memory ports per cluster for pure clustered organizations; for
  /// monolithic/hierarchical organizations all ports are global.
  int MemPortsPerCluster() const {
    return rf.IsPureClustered() ? num_mem_ports / rf.clusters : num_mem_ports;
  }
  /// Number of scheduling clusters (1 for monolithic organizations).
  int NumClusters() const { return rf.clusters > 0 ? rf.clusters : 1; }

  /// True when the cluster count divides the resources evenly, as the paper
  /// requires for homogeneous clustering, and when pure clustered
  /// organizations do not exceed one cluster per memoryory port.
  bool IsValid(std::string* why = nullptr) const;

  /// The paper's baseline: 8 FUs + 4 memory ports, monolithic S128.
  static MachineConfig Baseline();
  /// Baseline resources with the given RF configuration (latencies are NOT
  /// rescaled; call hwmodel::Characterize for that).
  static MachineConfig WithRF(const RFConfig& rf);

  std::string Name() const;
};

}  // namespace hcrf
