// Policy layer of the scheduling engine: the pluggable heuristics of
// MIRS_HC, separated from the engine driver that applies them.
//
//  * NodeOrderPolicy     -- scheduling order / priorities (default: the
//                           HRMS-style register-sensitive ordering).
//  * ClusterSelector     -- which cluster a structurally unconstrained node
//                           goes to (paper's Select_Cluster heuristic vs
//                           round-robin / first-fit ablations).
//  * SpillVictimPolicy   -- which lifetime to split when a bank overflows.
//
// Selectors may keep per-run state (round-robin's counter); the engine
// creates one instance per MirsHC run from a factory, so a MirsOptions
// value holding a factory stays shareable across threads (a batch runs
// many requests carrying copies of one MirsOptions concurrently).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/sched_state.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"

namespace hcrf::core {

enum class ClusterPolicy : std::uint8_t {
  kBalanced,    ///< Paper's heuristic: slots + communication + registers.
  kRoundRobin,  ///< Ablation: cyclic assignment.
  kFirstFit,    ///< Ablation: lowest-index cluster with a free slot.
};

std::string_view ToString(ClusterPolicy p);

// ---------------------------------------------------------------------------
// Node ordering
// ---------------------------------------------------------------------------

class NodeOrderPolicy {
 public:
  virtual ~NodeOrderPolicy() = default;
  virtual std::string_view name() const = 0;
  /// Scheduling order of the original graph, front = highest priority.
  /// Computed once per run and reused across II attempts (the working graph
  /// starts every attempt as a fresh copy of the original).
  virtual std::vector<NodeId> Order(const DDG& g,
                                    const MachineConfig& m) const = 0;
};

/// The HRMS/Swing ordering of the paper (sched::HrmsOrder).
class HrmsOrderPolicy : public NodeOrderPolicy {
 public:
  std::string_view name() const override { return "hrms"; }
  std::vector<NodeId> Order(const DDG& g,
                            const MachineConfig& m) const override;
};

// ---------------------------------------------------------------------------
// Cluster selection
// ---------------------------------------------------------------------------

class ClusterSelector {
 public:
  virtual ~ClusterSelector() = default;
  virtual std::string_view name() const = 0;
  /// Picks the cluster for a node with no structural constraint (the
  /// engine routes communication/spill copies to the cluster dictated by
  /// the scheduled endpoint they serve before consulting the policy).
  virtual int Select(const SchedState& st, NodeId u) = 0;
  /// Called at the start of every II attempt (per-attempt state reset).
  virtual void Reset() {}
};

/// Paper Section 5.1: cost = communication ops the placement would create,
/// a penalty for having no free slot in the dependence window, and soft
/// FU-usage / register-pressure balancing terms.
class BalancedClusterSelector : public ClusterSelector {
 public:
  std::string_view name() const override { return "balanced"; }
  int Select(const SchedState& st, NodeId u) override;
};

class RoundRobinClusterSelector : public ClusterSelector {
 public:
  std::string_view name() const override { return "round-robin"; }
  int Select(const SchedState& st, NodeId u) override;
  void Reset() override { next_ = 0; }

 private:
  int next_ = 0;
};

class FirstFitClusterSelector : public ClusterSelector {
 public:
  std::string_view name() const override { return "first-fit"; }
  int Select(const SchedState& st, NodeId u) override;
};

/// Factory creating a fresh selector per run (thread-safe to share).
using ClusterSelectorFactory =
    std::function<std::unique_ptr<ClusterSelector>()>;

std::unique_ptr<ClusterSelector> MakeClusterSelector(ClusterPolicy p);

// ---------------------------------------------------------------------------
// Spill victim selection
// ---------------------------------------------------------------------------

class SpillVictimPolicy {
 public:
  virtual ~SpillVictimPolicy() = default;
  virtual std::string_view name() const = 0;
  /// Picks the lifetime to spill among `candidates` (already filtered to
  /// legal victims of the overflowing bank). nullptr = decline, the engine
  /// falls back to invariant spilling.
  virtual const sched::ValueLifetime* Pick(
      const std::vector<const sched::ValueLifetime*>& candidates) const = 0;
};

/// The paper's heuristic: maximize lifetime length per use (long, rarely
/// read values free the most registers per added memory/copy op).
class LongestPerUseSpillPolicy : public SpillVictimPolicy {
 public:
  std::string_view name() const override { return "longest-per-use"; }
  const sched::ValueLifetime* Pick(
      const std::vector<const sched::ValueLifetime*>& candidates)
      const override;
};

}  // namespace hcrf::core
