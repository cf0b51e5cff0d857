#include "hwmodel/characterize.h"

#include <stdexcept>

namespace hcrf::hw {

Characterization Characterize(const MachineConfig& m, RFModelMode mode) {
  const RFConfig& rf = m.rf;
  if (rf.UnboundedClusterRegs() || rf.UnboundedSharedRegs()) {
    throw std::invalid_argument(
        "Characterize: unbounded register files have no hardware realization");
  }
  Characterization c;
  c.rf = rf;

  if (rf.HasClusters()) {
    c.cluster_bank = CharacterizeBank(
        rf.cluster_regs, rf.ClusterBankPorts(m.num_fus, m.num_mem_ports),
        mode);
    c.total_area_mlambda2 += rf.clusters * c.cluster_bank.area_mlambda2;
  }
  if (rf.HasSharedBank()) {
    c.shared_bank = CharacterizeBank(
        rf.IsMonolithic() ? rf.shared_regs : rf.shared_regs,
        rf.SharedBankPorts(m.num_fus, m.num_mem_ports), mode);
    c.total_area_mlambda2 += c.shared_bank.area_mlambda2;
  }

  // The cycle time is set by the access time of the banks that feed the
  // functional units: the cluster banks when they exist, the shared bank in
  // a monolithic organization (Section 3).
  c.critical_access_ns = rf.HasClusters() ? c.cluster_bank.access_ns
                                          : c.shared_bank.access_ns;
  c.logic_depth_fo4 = LogicDepthFo4(c.critical_access_ns);
  c.clock_ns = ClockNs(c.logic_depth_fo4);
  const double shared_for_comm =
      rf.IsHierarchical() ? c.shared_bank.access_ns : 0.0;
  c.lat = ScaleLatencies(c.logic_depth_fo4, shared_for_comm);
  return c;
}

MachineConfig ApplyCharacterization(const MachineConfig& m, RFModelMode mode) {
  if (m.rf.UnboundedClusterRegs() || m.rf.UnboundedSharedRegs()) return m;
  const Characterization c = Characterize(m, mode);
  MachineConfig out = m;
  out.clock_ns = c.clock_ns;
  out.lat = c.lat;
  return out;
}

}  // namespace hcrf::hw
