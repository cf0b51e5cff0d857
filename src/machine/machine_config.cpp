#include "machine/machine_config.h"

#include <string>

namespace hcrf {

std::string_view ToString(OpClass op) {
  switch (op) {
    case OpClass::kFAdd: return "fadd";
    case OpClass::kFMul: return "fmul";
    case OpClass::kFDiv: return "fdiv";
    case OpClass::kFSqrt: return "fsqrt";
    case OpClass::kLoad: return "load";
    case OpClass::kStore: return "store";
    case OpClass::kMove: return "move";
    case OpClass::kLoadR: return "loadr";
    case OpClass::kStoreR: return "storer";
  }
  return "?";
}

bool MachineConfig::IsValid(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (num_fus <= 0) return fail("num_fus must be positive");
  if (num_mem_ports <= 0) return fail("num_mem_ports must be positive");
  if (rf.clusters > 0 && num_fus % rf.clusters != 0) {
    return fail("clusters must divide num_fus evenly");
  }
  if (rf.IsPureClustered()) {
    if (rf.clusters > num_mem_ports) {
      return fail(
          "pure clustered organizations cannot have more clusters than "
          "memory ports (each cluster needs memory access)");
    }
    if (num_mem_ports % rf.clusters != 0) {
      return fail("clusters must divide num_mem_ports evenly");
    }
  }
  if (rf.clusters > 0 && rf.cluster_regs <= 0) {
    return fail("cluster banks must have registers");
  }
  return true;
}

MachineConfig MachineConfig::Baseline() { return MachineConfig{}; }

MachineConfig MachineConfig::WithRF(const RFConfig& rf) {
  MachineConfig m;
  m.rf = rf;
  return m;
}

std::string MachineConfig::Name() const {
  return std::to_string(num_fus) + "+" + std::to_string(num_mem_ports) + " " +
         rf.Name();
}

}  // namespace hcrf
