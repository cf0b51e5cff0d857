// Partial (and, when complete, final) modulo schedule: per-node issue cycle
// and cluster assignment at a fixed II.
//
// Cycles are absolute (possibly negative during construction); the kernel
// row of a node is `cycle mod II` and its stage is `floor(cycle / II)`
// after normalization. The stage count SC of a complete schedule is the
// number of II-cycle stages spanned by the loop body.
#pragma once

#include <vector>

#include "ddg/ddg.h"

namespace hcrf::sched {

struct Placement {
  int cycle = 0;
  int cluster = 0;      ///< 0 for monolithic organizations.
  int src_cluster = 0;  ///< Move only: the bus-drive side.
  bool scheduled = false;
};

class PartialSchedule {
 public:
  explicit PartialSchedule(int ii) : ii_(ii) {}

  /// Empties the schedule for a fresh attempt at a new II, keeping the
  /// slot buffer's capacity.
  void Reset(int ii) {
    slots_.clear();
    ii_ = ii;
    num_scheduled_ = 0;
  }

  int ii() const { return ii_; }

  void Assign(NodeId node, Placement p) {
    const size_t i = static_cast<size_t>(node);
    p.scheduled = true;
    if (i < slots_.size()) {
      slots_[i] = p;
    } else {
      slots_.resize(i);  // unscheduled gap up to the new node
      slots_.push_back(p);
    }
    ++num_scheduled_;
  }
  void Unassign(NodeId node) {
    if (!IsScheduled(node)) return;
    slots_[static_cast<size_t>(node)].scheduled = false;
    --num_scheduled_;
  }

  bool IsScheduled(NodeId node) const {
    return static_cast<size_t>(node) < slots_.size() &&
           slots_[static_cast<size_t>(node)].scheduled;
  }
  const Placement& Of(NodeId node) const {
    return slots_[static_cast<size_t>(node)];
  }
  int CycleOf(NodeId node) const { return Of(node).cycle; }
  int ClusterOf(NodeId node) const { return Of(node).cluster; }
  int NumScheduled() const { return num_scheduled_; }

  /// Minimum cycle over scheduled nodes (0 when empty).
  int MinCycle() const;
  /// Maximum *issue* cycle over scheduled nodes (0 when empty).
  int MaxCycle() const;

  /// Stage count: number of kernel stages of the loop body. The paper's
  /// execution-cycle estimate is II*(N + (SC-1)*E).
  int StageCount() const;

  /// Shifts all cycles so the minimum cycle lands in [0, II).
  void Normalize();

 private:
  std::vector<Placement> slots_;
  int ii_;
  int num_scheduled_ = 0;
};

}  // namespace hcrf::sched
