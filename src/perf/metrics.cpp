#include "perf/metrics.h"

namespace hcrf::perf {

SuiteMetrics Aggregate(const std::vector<LoopMetrics>& loops) {
  SuiteMetrics s;
  s.num_loops = static_cast<int>(loops.size());
  for (const LoopMetrics& lm : loops) {
    if (!lm.ok) {
      ++s.failed;
      continue;
    }
    s.sum_ii += lm.ii;
    if (lm.ii == lm.mii) ++s.loops_at_mii;
    s.useful_cycles += lm.useful_cycles;
    s.stall_cycles += lm.stall_cycles;
    s.mem_traffic += lm.mem_traffic;
    s.ops_executed += lm.ops_executed;
    s.ejections += lm.ejections;
    s.spills_inserted += lm.spills_inserted;
    s.ii_restarts += lm.ii_restarts;
    s.budget_spent += lm.budget_spent;
    const auto b = static_cast<size_t>(lm.bound);
    ++s.bound_count[b];
    s.bound_cycles[b] += lm.ExecCycles();
  }
  return s;
}

}  // namespace hcrf::perf
