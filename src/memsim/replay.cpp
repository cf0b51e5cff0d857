#include "memsim/replay.h"

#include <algorithm>
#include <climits>
#include <cstddef>
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
  std::uint64_t addr;    ///< Address in the current iteration.
  /// Signed stride in two's complement: unsigned wrap-around yields the
  /// same address as signed arithmetic.
  std::uint64_t stride;
  std::uint64_t base;    ///< Address of iteration 0: ArrayBase + offset.
  int cycle;             ///< Issue cycle within the (normalized) kernel body.
  /// Stall a miss adds beyond its MSHR wait: miss minus hit latency for a
  /// load scheduled with hit latency (the core expects its value then),
  /// 0 for stores and for loads bound to miss latency (prefetched).
  int late;
};

/// Completion times of the outstanding misses: at most `mshrs` entries, so
/// a flat array with a cached minimum. Only the multiset of times matters,
/// never their order. Most retirements find nothing to retire (the minimum
/// says so) and the file is rarely full, so the common miss costs a
/// compare and an append.
class InflightMisses {
 public:
  explicit InflightMisses(int mshrs)
      : times_(static_cast<std::size_t>(mshrs)) {}

  void Clear() {
    size_ = 0;
    min_ = LONG_MAX;
  }
  bool Full() const { return size_ == times_.size(); }
  long Min() const { return min_; }

  /// Retires every miss completed by cycle `now`.
  void RetireUntil(long now) {
    if (min_ > now) return;
    std::size_t kept = 0;
    long min = LONG_MAX;
    for (std::size_t k = 0; k < size_; ++k) {
      const long t = times_[k];
      times_[kept] = t;
      const bool keep = t > now;
      kept += keep;
      min = keep && t < min ? t : min;
    }
    size_ = kept;
    min_ = min;
  }

  /// Frees the earliest-completing slot (the file must be non-empty).
  void PopMin() {
    std::size_t k = 0;
    while (times_[k] != min_) ++k;
    times_[k] = times_[--size_];
    min_ = size_ == 0 ? LONG_MAX
                      : *std::min_element(times_.data(), times_.data() + size_);
  }

  void Push(long completion) {
    times_[size_++] = completion;
    min_ = std::min(min_, completion);
  }

  /// The outstanding completion times minus `base`, ascending.
  void Relative(long base, std::vector<long>& out) const {
    out.assign(times_.data(), times_.data() + size_);
    for (long& t : out) t -= base;
    std::sort(out.begin(), out.end());
  }

 private:
  std::vector<long> times_;  ///< The first size_ entries are outstanding.
  std::size_t size_ = 0;
  long min_ = LONG_MAX;  ///< LONG_MAX when empty.
};

/// The cold invocation's state before a checkpoint iteration: what the warm
/// invocation compares its own state against at the same iteration.
struct Checkpoint {
  long stall;    ///< Stall cycles of the iterations before.
  long misses;   ///< Misses of the iterations before.
  std::vector<std::uint64_t> tags;  ///< The cache's tag array.
  /// Outstanding completions relative to the iteration's base cycle.
  std::vector<long> inflight;
};

/// Iterations at which checkpoints are taken: 64, 128, 256, ...
constexpr long kFirstCheckpoint = 64;

/// One loop's replay: the kernel's memory operations stepped through one
/// cache, one invocation at a time.
class Replayer {
 public:
  struct Totals {
    long stall = 0;
    long misses = 0;
  };

  Replayer(std::vector<MemOp> ops, const CacheConfig& cfg, int ii,
           int miss_lat)
      : ops_(std::move(ops)),
        cache_(cfg),
        inflight_(cfg.mshrs),
        ii_(ii),
        miss_lat_(miss_lat),
        first_cycle_(ops_.front().cycle),
        last_cycle_(ops_.back().cycle) {}

  /// Replays the first invocation and, when there are more, one warm
  /// invocation standing for each of them: the stall cycles and misses of
  /// `invocations` runs of `trip` iterations into `out`.
  template <int kWays>
  void Run(long trip, long invocations, ReplayResult& out) {
    const bool warm = invocations > 1;
    const Totals cold = Cold<kWays>(trip, /*record=*/warm);
    out.stall_cycles = cold.stall;
    out.misses = cold.misses;
    if (!warm) return;
    const Totals rest = Warm<kWays>(trip, cold);
    out.stall_cycles += rest.stall * (invocations - 1);
    out.misses += rest.misses;
  }

  /// Accesses stepped through the cache so far.
  long simulated() const { return simulated_; }

 private:
  long iter_base() const { return iter_ * ii_ + stall_; }

  /// The cold invocation: iterations [0, trip) against the empty cache.
  /// With `record`, keeps a checkpoint at every checkpoint iteration below
  /// `trip` for Warm to compare against.
  template <int kWays>
  Totals Cold(long trip, bool record) {
    Begin();
    for (long at = kFirstCheckpoint;; at *= 2) {
      Step<kWays>(std::min(at, trip));
      if (iter_ == trip) return {stall_, misses_};
      if (!record) continue;
      Settle();
      Checkpoint& cp = checkpoints_.emplace_back();
      cp.stall = stall_;
      cp.misses = misses_;
      cp.tags.assign(cache_.tags().begin(), cache_.tags().end());
      inflight_.Relative(iter_base(), cp.inflight);
    }
  }

  /// A warm invocation against the cache the cold one left. It stops at
  /// the first checkpoint whose state it matches: addresses depend only on
  /// the iteration, so equal state (tags and outstanding misses, relative
  /// to the iteration's base cycle) at an equal iteration gives an equal
  /// future, and the rest of this invocation is the cold one's rest.
  template <int kWays>
  Totals Warm(long trip, const Totals& cold) {
    Begin();
    long at = kFirstCheckpoint;
    for (const Checkpoint& cp : checkpoints_) {
      Step<kWays>(at);
      at *= 2;
      Settle();
      inflight_.Relative(iter_base(), relative_);
      if (std::ranges::equal(cache_.tags(), cp.tags) &&
          relative_ == cp.inflight) {
        return {stall_ + (cold.stall - cp.stall),
                misses_ + (cold.misses - cp.misses)};
      }
    }
    Step<kWays>(trip);
    return {stall_, misses_};
  }

  void Begin() {
    for (MemOp& op : ops_) op.addr = op.base;
    inflight_.Clear();
    iter_ = 0;
    stall_ = 0;
    retire_ = LONG_MIN;
    misses_ = 0;
  }

  /// Applies the retirement owed before iteration iter_ and the one its
  /// first access does, leaving the MSHRs as the step-every-access model
  /// has them when that access looks (compared by checkpoints).
  void Settle() {
    inflight_.RetireUntil(std::max(retire_, iter_base() + first_cycle_));
    retire_ = LONG_MIN;
  }

  /// Runs iterations [iter_, end).
  template <int kWays>
  void Step(long end) {
    if (end > iter_) {
      simulated_ += (end - iter_) * static_cast<long>(ops_.size());
    }
    for (; iter_ < end; ++iter_) {
      const long base = iter_base();
      bool hit = true;
      for (MemOp& op : ops_) {
        hit = cache_.Access<kWays>(op.addr);
        op.addr += op.stride;
        if (!hit) Miss(base + op.cycle, op.late);
      }
      retire_ = hit ? base + last_cycle_ : LONG_MIN;
    }
  }

  void Miss(long issue, int late) {
    ++misses_;
    inflight_.RetireUntil(std::max(retire_, issue));
    retire_ = LONG_MIN;
    // MSHR pressure: stall until a slot frees. Every remaining miss
    // completes after `issue`, so the wait is > 0.
    long extra = 0;
    if (inflight_.Full()) {
      extra = inflight_.Min() - issue;
      inflight_.PopMin();
    }
    inflight_.Push(issue + extra + miss_lat_);
    stall_ += extra + late;
  }

  std::vector<MemOp> ops_;  ///< Ordered by issue cycle.
  Cache cache_;
  InflightMisses inflight_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<long> relative_;  ///< Warm's inflight, as in a Checkpoint.
  const int ii_;
  const int miss_lat_;
  const int first_cycle_;
  const int last_cycle_;
  long iter_ = 0;
  long stall_ = 0;
  /// Lazy retirement. In the model every access first retires the misses
  /// completed by its issue cycle, but only the next miss can tell: a hit
  /// reads nothing of the MSHRs and no miss is pushed in between. So a
  /// miss retires up to the largest issue cycle since the previous miss.
  /// Issue cycles grow within an iteration, so a miss covers the hits
  /// before it there, and iteration bases grow, so of the hits after the
  /// last miss the latest iteration's last op bounds all: retire_ is its
  /// issue cycle if that iteration ended in a hit, else LONG_MIN.
  long retire_ = LONG_MIN;
  long misses_ = 0;     ///< Misses of the current invocation so far.
  long simulated_ = 0;  ///< Accesses stepped, over every invocation.
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
    MemOp op{};
    op.cycle = sr.schedule.CycleOf(v);
    const bool bound_miss =
        sr.overrides.For(v, m.lat.load_hit) >= m.lat.load_miss;
    op.late = n.op == OpClass::kLoad && !bound_miss
                  ? m.lat.load_miss - m.lat.load_hit
                  : 0;
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
  const long trip = std::max(loop.trip, 0L);
  out.accesses = static_cast<long>(ops.size()) * trip *
                 (loop.invocations > 1 ? 2 : 1);
  Replayer replay(std::move(ops), cache_cfg, ii, m.lat.load_miss);
  if (cache_cfg.associativity == 2) {
    replay.Run<2>(trip, loop.invocations, out);
  } else {
    replay.Run<0>(trip, loop.invocations, out);
  }
  out.simulated = replay.simulated();
  return out;
}

}  // namespace hcrf::memsim
