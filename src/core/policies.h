// Cluster selection of the scheduling engine: which cluster a
// structurally unconstrained node goes to. The paper's Select_Cluster
// heuristic (Section 5.1) is the default; round-robin and first-fit are
// its ablations. MirsOptions::cluster_policy picks one, and that enum is
// part of the schedule cache key and of the `.hcl` options document.
//
// Selectors may keep per-attempt state (round-robin's counter), so each
// engine context holds its own instance of every selector and a
// MirsOptions value stays shareable across a batch's concurrent runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/sched_state.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"

namespace hcrf::core {

enum class ClusterPolicy : std::uint8_t {
  kBalanced,    ///< Paper's heuristic: slots + communication + registers.
  kRoundRobin,  ///< Ablation: cyclic assignment.
  kFirstFit,    ///< Ablation: lowest-index cluster with a free slot.
};

std::string_view ToString(ClusterPolicy p);

class ClusterSelector {
 public:
  virtual ~ClusterSelector() = default;
  /// Picks the cluster for a node with no structural constraint (the
  /// engine routes communication/spill copies to the cluster dictated by
  /// the scheduled endpoint they serve before consulting the policy). A
  /// policy that computes u's dependence window stores it in `window`, so
  /// the placement that follows can reuse it while the state holds.
  virtual int Select(const SchedState& st, NodeId u,
                     std::optional<Window>& window) = 0;
  /// Called at the start of every II attempt (per-attempt state reset).
  virtual void Reset() {}
};

/// Paper Section 5.1: cost = communication ops the placement would create,
/// a penalty for having no free slot in the dependence window, and soft
/// FU-usage / register-pressure balancing terms.
class BalancedClusterSelector : public ClusterSelector {
 public:
  int Select(const SchedState& st, NodeId u,
             std::optional<Window>& window) override;

 private:
  /// Select's per-bank counts of its neighbours' banks, kept so the hot
  /// loop allocates nothing.
  std::vector<int> bank_uses_;
};

class RoundRobinClusterSelector : public ClusterSelector {
 public:
  int Select(const SchedState& st, NodeId u,
             std::optional<Window>& window) override;
  void Reset() override { next_ = 0; }

 private:
  int next_ = 0;
};

class FirstFitClusterSelector : public ClusterSelector {
 public:
  int Select(const SchedState& st, NodeId u,
             std::optional<Window>& window) override;
};

}  // namespace hcrf::core
