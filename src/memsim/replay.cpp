#include "memsim/replay.h"

#include <algorithm>
#include <climits>
#include <vector>

#include "core/check.h"

namespace hcrf::memsim {

namespace {

/// Address-space layout: each array id gets its own 1 MiB region, offset by
/// a per-array scatter so regions do not alias to the same cache sets.
std::uint64_t ArrayBase(std::int32_t array_id) {
  const std::uint64_t id = static_cast<std::uint32_t>(array_id);
  return (id << 20) + ((id * 7919u) % 997u) * 32u;
}

struct MemOp {
  int cycle;          ///< Issue cycle within the (normalized) kernel body.
  bool is_load;
  bool bound_miss;    ///< Scheduled assuming miss latency (prefetched).
  std::uint64_t base;    ///< Address of iteration 0: ArrayBase + offset.
  /// Signed stride in two's complement: unsigned wrap-around yields the
  /// same address as signed arithmetic.
  std::uint64_t stride;
};

/// Completion times of the outstanding misses: at most `mshrs` entries, so
/// a flat array with a cached minimum beats a heap. Only the multiset of
/// times matters, never their order.
class InflightMisses {
 public:
  explicit InflightMisses(int mshrs)
      : capacity_(static_cast<std::size_t>(mshrs)) {
    times_.reserve(capacity_);
  }

  void Clear() {
    times_.clear();
    min_ = LONG_MAX;
  }
  bool Full() const { return times_.size() >= capacity_; }
  long Min() const { return min_; }

  /// Retires every miss completed by cycle `now`.
  void RetireUntil(long now) {
    if (min_ > now) return;
    std::erase_if(times_, [now](long t) { return t <= now; });
    RecomputeMin();
  }

  /// Frees the earliest-completing slot (the queue must be non-empty).
  void PopMin() {
    *std::min_element(times_.begin(), times_.end()) = times_.back();
    times_.pop_back();
    RecomputeMin();
  }

  void Push(long completion) {
    times_.push_back(completion);
    min_ = std::min(min_, completion);
  }

 private:
  void RecomputeMin() {
    min_ = times_.empty() ? LONG_MAX
                          : *std::min_element(times_.begin(), times_.end());
  }

  std::size_t capacity_;
  std::vector<long> times_;
  long min_ = LONG_MAX;  ///< LONG_MAX when empty.
};

}  // namespace

ReplayResult ReplayLoop(const workload::Loop& loop,
                        const core::ScheduleResult& sr,
                        const MachineConfig& m,
                        const CacheConfig& cache_cfg) {
  ReplayResult out;
  const int ii = sr.ii;
  const long n_total = loop.TotalIterations();
  out.useful_cycles =
      static_cast<long>(ii) *
      (n_total + static_cast<long>(sr.sc - 1) * loop.invocations);

  // Collect memory operations of the kernel, ordered by issue cycle.
  std::vector<MemOp> ops;
  for (NodeId v = 0; v < sr.graph.NumSlots(); ++v) {
    if (!sr.graph.IsAlive(v)) continue;
    const Node& n = sr.graph.node(v);
    if (!IsMemory(n.op) || !n.mem.has_value()) continue;
    MemOp op;
    op.cycle = sr.schedule.CycleOf(v);
    op.is_load = n.op == OpClass::kLoad;
    op.bound_miss =
        op.is_load && sr.overrides.For(v, m.lat.load_hit) >= m.lat.load_miss;
    op.base = ArrayBase(n.mem->array_id) +
              static_cast<std::uint64_t>(n.mem->base);
    op.stride = static_cast<std::uint64_t>(n.mem->stride);
    ops.push_back(op);
  }
  std::sort(ops.begin(), ops.end(),
            [](const MemOp& a, const MemOp& b) { return a.cycle < b.cycle; });
  if (ops.empty()) return out;

  HCRF_CHECK(cache_cfg.mshrs >= 1, "replay needs at least one MSHR, got %d",
             cache_cfg.mshrs);
  Cache cache(cache_cfg);
  const int miss_lat = m.lat.load_miss;
  const int hit_lat = m.lat.load_hit;
  // Completion times of outstanding misses (absolute cycles).
  InflightMisses inflight(cache_cfg.mshrs);

  // One invocation against the current cache state; returns stall cycles.
  auto run_invocation = [&]() -> long {
    long stall = 0;
    inflight.Clear();
    for (long i = 0; i < loop.trip; ++i) {
      const long iter_base = i * ii + stall;
      const std::uint64_t iter = static_cast<std::uint64_t>(i);
      for (const MemOp& op : ops) {
        const long issue = iter_base + op.cycle;
        inflight.RetireUntil(issue);
        ++out.accesses;
        const bool hit = cache.Access(op.base + op.stride * iter);
        if (hit) continue;
        ++out.misses;
        // MSHR pressure: stall until a slot frees. Every remaining miss
        // completes after `issue` (RetireUntil above), so the wait is > 0.
        long extra = 0;
        if (inflight.Full()) {
          extra = inflight.Min() - issue;
          inflight.PopMin();
        }
        const long completion = issue + extra + miss_lat;
        inflight.Push(completion);
        if (op.is_load && !op.bound_miss) {
          // The core expects the value hit_lat cycles after issue.
          extra += miss_lat - hit_lat;
        }
        stall += extra;
      }
    }
    return stall;
  };

  const long cold = run_invocation();
  long warm = 0;
  if (loop.invocations > 1) {
    warm = run_invocation();
  }
  out.stall_cycles = cold + warm * (loop.invocations - 1);
  return out;
}

}  // namespace hcrf::memsim
