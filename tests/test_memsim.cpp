// Unit tests for the cache model, the loop replay and the binding-prefetch
// classifier. The cache is checked against an independent division-based
// reference model, and the replay against golden values recorded from the
// original division/priority-queue implementation and against a reference
// replay driving that reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mirs.h"
#include "experiment/experiment.h"
#include "hwmodel/characterize.h"
#include "memsim/cache.h"
#include "memsim/prefetch.h"
#include "memsim/replay.h"
#include "service/cache_tier.h"
#include "service/session.h"
#include "workload/kernels.h"
#include "workload/suite_cache.h"

namespace hcrf::memsim {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c;
  long hits = 0;
  long misses = 0;
  const auto access = [&](std::uint64_t addr) {
    const bool hit = c.Access(addr);
    ++(hit ? hits : misses);
    return hit;
  };
  EXPECT_FALSE(access(0x1000));
  EXPECT_TRUE(access(0x1000));
  EXPECT_TRUE(access(0x1008));  // same 32B line
  EXPECT_FALSE(access(0x1020)); // next line
  EXPECT_EQ(misses, 2);
  EXPECT_EQ(hits, 2);
}

TEST(Cache, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 2 * 32 * 2;  // 2 sets, 2-way, 32B lines
  cfg.associativity = 2;
  Cache c(cfg);
  // Three lines mapping to set 0 (set stride = 2 lines = 64B).
  const std::uint64_t a = 0 * 64;
  const std::uint64_t b = 1 * 64 + 32;  // set 1 actually; use multiples of 64
  (void)b;
  const std::uint64_t l0 = 0;
  const std::uint64_t l1 = 64;
  const std::uint64_t l2 = 128;
  (void)a;
  EXPECT_FALSE(c.Access(l0));
  EXPECT_FALSE(c.Access(l1));
  EXPECT_FALSE(c.Access(l2));  // evicts l0 (LRU)
  EXPECT_FALSE(c.Access(l0)); // miss again
  EXPECT_TRUE(c.Access(l2));  // still resident
}

TEST(Cache, ProbeDoesNotMutate) {
  Cache c;
  EXPECT_FALSE(c.Probe(0x40));
  EXPECT_FALSE(c.Probe(0x40));
  // The probes filled nothing: the first access misses.
  const long misses = c.Access(0x40) ? 0 : 1;
  EXPECT_TRUE(c.Probe(0x40));
  EXPECT_EQ(misses, 1);
}

TEST(Cache, ResetClears) {
  Cache c;
  c.Access(0x80);
  c.Reset();
  EXPECT_FALSE(c.Probe(0x80));
  // The line is gone: the next access misses and refills it.
  EXPECT_FALSE(c.Access(0x80));
  EXPECT_TRUE(c.Access(0x80));
}

// Reference model: per-set recency lists, decomposed with plain division
// and modulo -- deliberately nothing like Cache's shift/mask layout.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), sets_(static_cast<std::size_t>(cfg.NumSets())) {}

  bool Access(std::uint64_t addr) {
    const std::uint64_t line = addr / static_cast<std::uint64_t>(cfg_.line_bytes);
    const std::uint64_t num_sets = static_cast<std::uint64_t>(cfg_.NumSets());
    std::list<std::uint64_t>& set = sets_[line % num_sets];
    const std::uint64_t tag = line / num_sets;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == tag) {
        set.splice(set.begin(), set, it);  // most recent first
        return true;
      }
    }
    set.push_front(tag);
    if (set.size() > static_cast<std::size_t>(cfg_.associativity)) {
      set.pop_back();
    }
    return false;
  }

 private:
  CacheConfig cfg_;
  std::vector<std::list<std::uint64_t>> sets_;
};

CacheConfig Geometry(long size_bytes, int line_bytes, int associativity) {
  CacheConfig cfg;
  cfg.size_bytes = size_bytes;
  cfg.line_bytes = line_bytes;
  cfg.associativity = associativity;
  return cfg;
}

// Strided, aliasing (same-set, many tags) and uniformly random address
// streams through several power-of-two geometries: every hit/miss verdict,
// every Probe and the final counters must match the reference model.
TEST(Cache, MatchesDivisionReferenceModel) {
  const CacheConfig geometries[] = {
      Geometry(32 * 1024, 32, 2),  // the paper's L1
      Geometry(1024, 16, 1),       // direct mapped
      Geometry(4096, 64, 4),
      Geometry(2048, 32, 8),
      Geometry(256, 32, 8),        // one set: fully associative
  };
  for (const CacheConfig& cfg : geometries) {
    const std::uint64_t set_span =
        static_cast<std::uint64_t>(cfg.NumSets()) *
        static_cast<std::uint64_t>(cfg.line_bytes);
    for (int pattern = 0; pattern < 3; ++pattern) {
      SCOPED_TRACE("size " + std::to_string(cfg.size_bytes) + " line " +
                   std::to_string(cfg.line_bytes) + " ways " +
                   std::to_string(cfg.associativity) + " pattern " +
                   std::to_string(pattern));
      std::mt19937 rng(static_cast<std::mt19937::result_type>(
          cfg.size_bytes + pattern * 7919));
      Cache cache(cfg);
      ReferenceCache ref(cfg);
      long hits = 0;
      long misses = 0;
      long cache_hits = 0;
      long cache_misses = 0;
      for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr = 0;
        if (pattern == 0) {
          // Interleaved strided streams, strides up to 4 lines.
          const std::uint64_t stream = rng() % 4;
          addr = (stream << 24) + static_cast<std::uint64_t>(i) *
                                      (8u << (stream % 4));
        } else if (pattern == 1) {
          // Aliasing: 2x associativity tags competing for a few sets.
          const std::uint64_t tag = rng() % (2u * cfg.associativity + 1);
          const std::uint64_t set = rng() % 3;
          addr = tag * set_span + set * cfg.line_bytes + rng() % 8;
        } else {
          addr = (static_cast<std::uint64_t>(rng()) << 8) ^ rng();
        }
        const bool expected = ref.Access(addr);
        ASSERT_EQ(cache.Probe(addr), expected) << "access " << i;
        const bool hit = cache.Access(addr);
        ASSERT_EQ(hit, expected) << "access " << i;
        ASSERT_TRUE(cache.Probe(addr));
        (expected ? hits : misses) += 1;
        (hit ? cache_hits : cache_misses) += 1;
      }
      EXPECT_EQ(cache_hits, hits);
      EXPECT_EQ(cache_misses, misses);
      EXPECT_GT(misses, 0);
    }
  }
}

TEST(CacheDeathTest, NonPowerOfTwoGeometryFailsCheck) {
  // 3 KiB / (32 B * 2 ways) = 48 sets.
  EXPECT_DEATH(Cache(Geometry(3 * 1024, 32, 2)), "power of two");
  // 24-byte lines.
  EXPECT_DEATH(Cache(Geometry(24 * 64, 24, 2)), "power of two");
}

TEST(CacheDeathTest, GeometryWithoutATagBitFailsCheck) {
  // One set of 1-byte lines: a tag could be any 64-bit value, including
  // the empty-way sentinel.
  EXPECT_DEATH(Cache(Geometry(4, 1, 4)), "no tag bit");
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

TEST(Replay, UnitStrideLoopMostlyHits) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(1024);
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);
  // 3 arrays * 8B stride: one miss per 4 accesses per array.
  EXPECT_GT(rr.accesses, 3000);
  EXPECT_NEAR(static_cast<double>(rr.misses) / rr.accesses, 0.25, 0.05);
  EXPECT_GT(rr.stall_cycles, 0);  // no prefetching: loads stall on miss
  EXPECT_GT(rr.useful_cycles, 0);
}

TEST(Replay, BindingPrefetchRemovesLoadStalls) {
  MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(1024);
  const sched::LatencyOverrides ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kAll);
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, ov);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);
  EXPECT_EQ(rr.stall_cycles, 0);  // all loads bound to miss latency
}

TEST(Replay, WarmInvocationsStallLess) {
  const MachineConfig m = MachineConfig::Baseline();
  // Small working set: fits in 32KB, so invocations after the first hit.
  workload::Loop loop = workload::MakeVadd(256);
  loop.invocations = 10;
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);

  workload::Loop once = loop;
  once.invocations = 1;
  const ReplayResult r1 = ReplayLoop(once, sr, m);
  // Stalls grow far slower than 10x: the warm invocations hit.
  EXPECT_LT(rr.stall_cycles, 3 * r1.stall_cycles + 1);
}

TEST(Replay, StridedLoopMissesMore) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop unit = workload::MakeVadd(512);
  workload::Loop strided = workload::MakeVadd(512);
  for (NodeId v = 0; v < strided.ddg.NumSlots(); ++v) {
    Node& n = strided.ddg.node(v);
    if (n.mem.has_value()) n.mem->stride = 256;  // one line per access
  }
  const core::ScheduleResult s1 = core::MirsHC(unit.ddg, m);
  const core::ScheduleResult s2 = core::MirsHC(strided.ddg, m);
  ASSERT_TRUE(s1.ok);
  ASSERT_TRUE(s2.ok);
  const ReplayResult r1 = ReplayLoop(unit, s1, m);
  const ReplayResult r2 = ReplayLoop(strided, s2, m);
  EXPECT_GT(r2.misses, 3 * r1.misses);
}

// Golden ReplayResults recorded from the original kernel (division-based
// cache indexing, priority-queue MSHR model). Covers unit-stride, every-
// access-misses (MSHR-bound), short-trip warm invocations and generated
// loops, across the Figure 6 organizations and every prefetch policy.
struct GoldenReplay {
  const char* loop;
  const char* org;
  PrefetchMode mode;
  long stall_cycles;
  long useful_cycles;
  long accesses;
  long misses;
};

workload::Loop GoldenLoop(const std::string& name) {
  if (name == "cmul") {
    workload::Loop loop = workload::MakeCmul();
    loop.invocations = 3;
    return loop;
  }
  if (name == "daxpy-stride256") {
    workload::Loop loop = workload::MakeDaxpy(600);
    loop.invocations = 2;
    for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
      Node& n = loop.ddg.node(v);
      if (n.mem.has_value()) n.mem->stride = 256;
    }
    return loop;
  }
  if (name == "hydro-trip32") {
    workload::Loop loop = workload::MakeHydro(32);
    loop.invocations = 50;
    return loop;
  }
  const workload::Suite* synth = workload::SharedSuiteByName("synth");
  for (std::size_t i = 0; i < synth->size(); ++i) {
    if ((*synth)[i].ddg.name() == name) return (*synth)[i];
  }
  ADD_FAILURE() << "unknown golden loop " << name;
  return {};
}

TEST(Replay, GoldenResultsAcrossOrganizationsAndPolicies) {
  const GoldenReplay golden[] = {
    {"cmul", "S64", PrefetchMode::kNone, 12852, 4830, 9600, 1977},
    {"cmul", "S64", PrefetchMode::kAll, 0, 4860, 9600, 1977},
    {"cmul", "S64", PrefetchMode::kSelective, 0, 4860, 9600, 1977},
    {"cmul", "4C32/1-1", PrefetchMode::kNone, 31212, 9660, 9600, 1977},
    {"cmul", "4C32/1-1", PrefetchMode::kAll, 0, 9708, 9600, 1977},
    {"cmul", "4C32/1-1", PrefetchMode::kSelective, 0, 9708, 9600, 1977},
    {"cmul", "4C32S16/1-1", PrefetchMode::kNone, 33048, 9672, 9600, 1977},
    {"cmul", "4C32S16/1-1", PrefetchMode::kAll, 0, 9720, 9600, 1977},
    {"cmul", "4C32S16/1-1", PrefetchMode::kSelective, 0, 9720, 9600, 1977},
    {"daxpy-stride256", "S64", PrefetchMode::kNone, 16800, 1222, 3600, 2400},
    {"daxpy-stride256", "S64", PrefetchMode::kAll, 0, 1236, 3600, 2400},
    {"daxpy-stride256", "S64", PrefetchMode::kSelective, 0, 1236, 3600, 2400},
    {"daxpy-stride256", "4C32/1-1", PrefetchMode::kNone, 40800, 1234, 3600, 2400},
    {"daxpy-stride256", "4C32/1-1", PrefetchMode::kAll, 0, 2464, 3600, 2400},
    {"daxpy-stride256", "4C32/1-1", PrefetchMode::kSelective, 0, 2464, 3600, 2400},
    {"daxpy-stride256", "4C32S16/1-1", PrefetchMode::kNone, 43200, 2440, 3600, 2400},
    {"daxpy-stride256", "4C32S16/1-1", PrefetchMode::kAll, 0, 2476, 3600, 2400},
    {"daxpy-stride256", "4C32S16/1-1", PrefetchMode::kSelective, 0, 2476, 3600, 2400},
    {"hydro-trip32", "S64", PrefetchMode::kNone, 119, 2550, 256, 25},
    {"hydro-trip32", "S64", PrefetchMode::kAll, 0, 2900, 256, 25},
    {"hydro-trip32", "S64", PrefetchMode::kSelective, 119, 2550, 256, 25},
    {"hydro-trip32", "4C32/1-1", PrefetchMode::kNone, 289, 4700, 256, 25},
    {"hydro-trip32", "4C32/1-1", PrefetchMode::kAll, 0, 5600, 256, 25},
    {"hydro-trip32", "4C32/1-1", PrefetchMode::kSelective, 289, 4700, 256, 25},
    {"hydro-trip32", "4C32S16/1-1", PrefetchMode::kNone, 306, 6600, 256, 25},
    {"hydro-trip32", "4C32S16/1-1", PrefetchMode::kAll, 0, 7500, 256, 25},
    {"hydro-trip32", "4C32S16/1-1", PrefetchMode::kSelective, 306, 6600, 256, 25},
    {"synth-stream-0", "S64", PrefetchMode::kNone, 59857, 13152, 24058, 7159},
    {"synth-stream-0", "S64", PrefetchMode::kAll, 0, 13176, 24058, 7157},
    {"synth-stream-0", "S64", PrefetchMode::kSelective, 0, 13176, 24058, 7157},
    {"synth-stream-0", "4C32/1-1", PrefetchMode::kNone, 145367, 13152, 24058, 7159},
    {"synth-stream-0", "4C32/1-1", PrefetchMode::kAll, 0, 15428, 26150, 7421},
    {"synth-stream-0", "4C32/1-1", PrefetchMode::kSelective, 0, 15428, 26150, 7421},
    {"synth-stream-0", "4C32S16/1-1", PrefetchMode::kNone, 153918, 24112, 24058, 7159},
    {"synth-stream-0", "4C32S16/1-1", PrefetchMode::kAll, 0, 24156, 24058, 7159},
    {"synth-stream-0", "4C32S16/1-1", PrefetchMode::kSelective, 0, 24156, 24058, 7159},
    {"synth-stream-1", "S64", PrefetchMode::kNone, 226617, 44562, 170802, 41039},
    {"synth-stream-1", "S64", PrefetchMode::kAll, 5543, 47745, 170802, 41039},
    {"synth-stream-1", "S64", PrefetchMode::kSelective, 5543, 47745, 170802, 41039},
    {"synth-stream-1", "4C32/1-1", PrefetchMode::kNone, 563817, 54128, 189780, 41834},
    {"synth-stream-1", "4C32/1-1", PrefetchMode::kAll, 26986, 57312, 227736, 46631},
    {"synth-stream-1", "4C32/1-1", PrefetchMode::kSelective, 26986, 57312, 227736, 46631},
  };
  for (const GoldenReplay& g : golden) {
    SCOPED_TRACE(std::string(g.loop) + " " + g.org + " " +
                 std::string(ToString(g.mode)));
    const workload::Loop loop = GoldenLoop(g.loop);
    const MachineConfig m = hw::ApplyCharacterization(
        MachineConfig::WithRF(RFConfig::Parse(g.org)),
        hw::RFModelMode::kPaperTable);
    const sched::LatencyOverrides ov =
        ClassifyBindingPrefetch(loop.ddg, m, loop.trip, g.mode);
    const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, ov);
    ASSERT_TRUE(sr.ok);
    const ReplayResult rr = ReplayLoop(loop, sr, m);
    EXPECT_EQ(rr.stall_cycles, g.stall_cycles);
    EXPECT_EQ(rr.useful_cycles, g.useful_cycles);
    EXPECT_EQ(rr.accesses, g.accesses);
    EXPECT_EQ(rr.misses, g.misses);
  }
}

// The straightforward replay kernel, driving ReferenceCache: every access
// of the cold and the one warm invocation stepped, eager MSHR retirement
// before each access. src/memsim/replay.cpp must match it exactly despite
// its warm cut-off and lazy retirement.

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

ReplayResult ReferenceReplay(const workload::Loop& loop,
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
  ReferenceCache cache(cache_cfg);
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

// Every kernel plus the first 64 synthetic loops, scheduled on each Figure 6
// organization under each prefetch policy: all four ReplayResult fields
// must match the reference replay, on the paper's L1 and on a 4-way,
// 64-byte-line, 2-MSHR geometry (multi-way recency shifts, MSHR-bound).
TEST(Replay, MatchesReferenceReplay) {
  const experiment::Experiment* fig6 = experiment::FindExperiment("fig6");
  ASSERT_NE(fig6, nullptr);
  ASSERT_EQ(fig6->machines.size(), 7u);
  std::vector<const workload::Loop*> loops;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    loops.push_back(&kernels[i]);
  }
  const workload::Suite* synth = workload::SharedSuiteByName("synth");
  ASSERT_NE(synth, nullptr);
  ASSERT_GE(synth->size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) loops.push_back(&(*synth)[i]);

  CacheConfig narrow;
  narrow.size_bytes = 32 * 1024;
  narrow.line_bytes = 64;
  narrow.associativity = 4;
  narrow.mshrs = 2;
  const CacheConfig geometries[] = {CacheConfig{}, narrow};
  long compared = 0;
  long saturated = 0;  // narrow replays that stalled on a full MSHR file
  for (const workload::Loop* loop : loops) {
    for (const experiment::MachineVariant& mv : fig6->machines) {
      for (PrefetchMode mode : {PrefetchMode::kNone, PrefetchMode::kAll,
                                PrefetchMode::kSelective}) {
        const sched::LatencyOverrides ov = ClassifyBindingPrefetch(
            loop->ddg, mv.machine, loop->trip, mode);
        const core::ScheduleResult sr =
            core::MirsHC(loop->ddg, mv.machine, {}, ov);
        if (!sr.ok) continue;
        for (const CacheConfig& cfg : geometries) {
          SCOPED_TRACE(loop->ddg.name() + " " + mv.label + " " +
                       std::string(ToString(mode)) + " ways " +
                       std::to_string(cfg.associativity));
          const ReplayResult got = ReplayLoop(*loop, sr, mv.machine, cfg);
          const ReplayResult want =
              ReferenceReplay(*loop, sr, mv.machine, cfg);
          ASSERT_EQ(got.stall_cycles, want.stall_cycles);
          ASSERT_EQ(got.useful_cycles, want.useful_cycles);
          ASSERT_EQ(got.accesses, want.accesses);
          ASSERT_EQ(got.misses, want.misses);
          ++compared;
          if (cfg.mshrs == 2 && mode == PrefetchMode::kAll &&
              got.stall_cycles > 0) {
            ++saturated;  // bound loads stall only when the MSHRs are full
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 2 * 7 * 3 * 64);
  EXPECT_GT(saturated, 0);
}

// Replays `loop` (scheduled on `m`) on `cfg` and checks all four fields
// against the reference replay; returns the kernel's result.
ReplayResult ReplayMatchingReference(const workload::Loop& loop,
                                     const core::ScheduleResult& sr,
                                     const MachineConfig& m,
                                     const CacheConfig& cfg = {}) {
  const ReplayResult got = ReplayLoop(loop, sr, m, cfg);
  const ReplayResult want = ReferenceReplay(loop, sr, m, cfg);
  EXPECT_EQ(got.stall_cycles, want.stall_cycles);
  EXPECT_EQ(got.useful_cycles, want.useful_cycles);
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_GT(got.simulated, 0);
  EXPECT_LE(got.simulated, got.accesses);
  return got;
}

// Gives every memory op of `loop` a one-line stride: each access touches a
// new line, so the footprint outgrows the cache after a few hundred
// iterations and the warm invocation rejoins the cold one.
workload::Loop Streaming(workload::Loop loop) {
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    Node& n = loop.ddg.node(v);
    if (n.mem.has_value()) n.mem->stride = 256;
  }
  return loop;
}

// A footprint that fits in the cache: the warm invocation hits where the
// cold one missed, never matches a checkpoint, and is stepped in full.
TEST(Replay, ResidentFootprintSimulatesEveryWarmAccess) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(512);  // 3 x 4 KiB
  loop.invocations = 10;
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayMatchingReference(loop, sr, m);
  EXPECT_EQ(rr.simulated, rr.accesses);
}

// Below the first checkpoint there is nothing to compare; at a power-of-
// two trip the last checkpoint is the one below the trip.
TEST(Replay, TripBelowAndAtACheckpoint) {
  const MachineConfig m = MachineConfig::Baseline();
  for (long trip : {1L, 40L, 63L, 64L, 65L, 128L, 1024L, 2048L}) {
    SCOPED_TRACE("trip " + std::to_string(trip));
    workload::Loop loop = Streaming(workload::MakeDaxpy(trip));
    loop.invocations = 3;
    const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
    ASSERT_TRUE(sr.ok);
    const ReplayResult rr = ReplayMatchingReference(loop, sr, m);
    if (trip <= 64) {
      EXPECT_EQ(rr.simulated, rr.accesses);
    }
    if (trip == 2048) {
      EXPECT_LT(rr.simulated, rr.accesses);
    }
  }
}

// The runtime-ways kernel cuts off too: 4 ways, 64-byte lines and 2 MSHRs
// (MSHR-bound) over several invocations.
TEST(Replay, WarmCutOffOnFourWayGeometry) {
  CacheConfig narrow;
  narrow.line_bytes = 64;
  narrow.associativity = 4;
  narrow.mshrs = 2;
  const MachineConfig m = MachineConfig::Baseline();
  for (PrefetchMode mode : {PrefetchMode::kNone, PrefetchMode::kAll}) {
    workload::Loop loop = Streaming(workload::MakeVadd(5000));
    loop.invocations = 4;
    const sched::LatencyOverrides ov =
        ClassifyBindingPrefetch(loop.ddg, m, loop.trip, mode);
    const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, ov);
    ASSERT_TRUE(sr.ok);
    const ReplayResult rr = ReplayMatchingReference(loop, sr, m, narrow);
    EXPECT_LT(rr.simulated, rr.accesses);
    EXPECT_GT(rr.stall_cycles, 0);
  }
}

// Schedules whose memory ops span stages (a cycle >= II; binding
// prefetch stretches them): the hits that end one iteration issue after
// the first accesses of the next, so the retirement they owe crosses the
// iteration boundary. Two MSHRs keep the MSHR file full, where retirement
// decides the stalls.
TEST(Replay, MultiStageScheduleMatchesReference) {
  CacheConfig narrow;
  narrow.line_bytes = 64;
  narrow.associativity = 4;
  narrow.mshrs = 2;
  int checked = 0;
  for (const char* org : {"S64", "4C32/1-1"}) {
    const MachineConfig m = hw::ApplyCharacterization(
        MachineConfig::WithRF(RFConfig::Parse(org)),
        hw::RFModelMode::kPaperTable);
    for (workload::Loop loop :
         {workload::MakeVadd(), workload::MakeDaxpy(), workload::MakeHydro(),
          workload::MakeCmul(), Streaming(workload::MakeDaxpy())}) {
      loop.invocations = 3;
      for (PrefetchMode mode : {PrefetchMode::kNone, PrefetchMode::kAll}) {
        SCOPED_TRACE(loop.ddg.name() + " " + org + " " +
                     std::string(ToString(mode)));
        const sched::LatencyOverrides ov =
            ClassifyBindingPrefetch(loop.ddg, m, loop.trip, mode);
        const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, ov);
        ASSERT_TRUE(sr.ok);
        int last = INT_MIN;
        for (NodeId v = 0; v < sr.graph.NumSlots(); ++v) {
          if (sr.graph.IsAlive(v) && sr.graph.node(v).mem.has_value()) {
            last = std::max(last, sr.schedule.CycleOf(v));
          }
        }
        if (last < sr.ii) continue;
        ReplayMatchingReference(loop, sr, m);
        ReplayMatchingReference(loop, sr, m, narrow);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 10);
}

// A long unit-stride stream: the warm invocation rejoins the cold one
// early and most of it is never stepped.
TEST(Replay, LongStreamSkipsMostOfTheWarmInvocation) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeDaxpy(200000);
  loop.invocations = 7;
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayMatchingReference(loop, sr, m);
  // The cold invocation is half the accesses; the warm one stops far
  // before its end.
  EXPECT_LT(rr.simulated, rr.accesses * 6 / 10);
}

// Every distinct memory replay of the paper reproduction (every
// simulate_memory cell of every registered experiment, deduplicated as
// experiment::RunExperiments does): all four fields must equal the
// reference replay's. Disabled by default (~1 min at one thread);
// CI runs it with --gtest_also_run_disabled_tests.
TEST(Replay, DISABLED_EveryReproReplayMatchesReference) {
  struct Case {
    const workload::Loop* loop;
    const MachineConfig* machine;
  };
  std::vector<std::shared_ptr<const workload::Suite>> slices;
  std::vector<service::BatchRequest> requests;
  std::vector<std::vector<Case>> cases;  // per request
  std::unordered_map<service::CacheKey, std::size_t, service::CacheKeyHash>
      dedup;
  for (const experiment::Experiment& e : experiment::Registry()) {
    const workload::Suite* suite = nullptr;
    if (!e.workload.suite.empty()) {
      suite = workload::SharedSuiteByName(e.workload.suite);
      ASSERT_NE(suite, nullptr) << e.workload.suite;
      if (e.workload.slice != 0 && e.workload.slice < suite->size()) {
        slices.push_back(std::make_shared<const workload::Suite>(
            workload::SuiteSlice(*suite, e.workload.slice)));
        suite = slices.back().get();
      }
    }
    for (const experiment::MachineVariant& mv : e.machines) {
      for (const experiment::EngineVariant& ev : e.engines) {
        if (!ev.simulate_memory || suite == nullptr) continue;
        for (const workload::Loop& loop : suite->loops()) {
          service::BatchRequest req;
          // Non-owning alias: the suite outlives the batch.
          req.loop = std::shared_ptr<const workload::Loop>(
              std::shared_ptr<const void>(), &loop);
          req.machine = mv.machine;
          req.options = ev.options;
          if (ev.prefetch != PrefetchMode::kNone) {
            req.overrides = ClassifyBindingPrefetch(loop.ddg, mv.machine,
                                                    loop.trip, ev.prefetch);
          }
          const auto [it, inserted] = dedup.emplace(
              service::MakeCacheKey(loop.ddg, mv.machine, ev.options,
                                    req.overrides),
              requests.size());
          if (inserted) {
            requests.push_back(std::move(req));
            cases.emplace_back();
          }
          std::vector<Case>& c = cases[it->second];
          const bool seen = std::ranges::any_of(c, [&](const Case& x) {
            return x.loop->trip == loop.trip &&
                   x.loop->invocations == loop.invocations;
          });
          if (!seen) c.push_back({&loop, &mv.machine});
        }
      }
    }
  }

  std::mutex mu;
  long compared = 0;
  long simulated = 0;
  long accesses = 0;
  std::vector<std::string> differing;
  service::SchedulerService session(service::ServiceConfig{});
  session.RunBatch(requests, [&](std::size_t r, service::BatchItem& item) {
    if (!item.ok) return;
    for (const Case& c : cases[r]) {
      const ReplayResult got = ReplayLoop(*c.loop, item.result, *c.machine);
      const ReplayResult want =
          ReferenceReplay(*c.loop, item.result, *c.machine, CacheConfig{});
      const std::lock_guard<std::mutex> lock(mu);
      ++compared;
      simulated += got.simulated;
      accesses += got.accesses;
      if (got.stall_cycles != want.stall_cycles ||
          got.useful_cycles != want.useful_cycles ||
          got.accesses != want.accesses || got.misses != want.misses) {
        differing.push_back(requests[r].loop->ddg.name() + " trip " +
                            std::to_string(c.loop->trip) + " x" +
                            std::to_string(c.loop->invocations));
      }
    }
  });
  EXPECT_EQ(compared, 9762);  // repro's `cells:` line: distinct replays
  EXPECT_EQ(accesses, 755396338);
  EXPECT_LT(simulated, accesses);
  EXPECT_TRUE(differing.empty())
      << differing.size() << " of " << compared << " differ, first "
      << differing.front();
}

// ---------------------------------------------------------------------------
// Prefetch classifier
// ---------------------------------------------------------------------------

TEST(Prefetch, NoneLeavesEverything) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeDot();
  const auto ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kNone);
  EXPECT_TRUE(ov.producer_latency.empty());
}

TEST(Prefetch, AllMarksEveryLoad) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeVadd();
  const auto ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kAll);
  int marked = 0;
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    if (loop.ddg.node(v).op == OpClass::kLoad) {
      EXPECT_EQ(ov.For(v, 0), m.lat.load_miss);
      ++marked;
    }
  }
  EXPECT_EQ(marked, 2);
}

TEST(Prefetch, SelectiveSkipsRecurrenceLoads) {
  const MachineConfig m = MachineConfig::Baseline();
  // Memory-carried recurrence: store -> load cycle; its load must keep hit
  // latency under the selective policy.
  DDG g;
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, -8, 8};
  const NodeId l = g.AddNode(std::move(ld));
  const NodeId add = g.AddNode(OpClass::kFAdd);
  Node st;
  st.op = OpClass::kStore;
  st.mem = MemRef{0, 0, 8};
  const NodeId sid = g.AddNode(std::move(st));
  g.AddFlow(l, add, 0);
  g.AddFlow(add, sid, 0);
  g.AddEdge(sid, l, DepKind::kMem, 1);
  // A second, independent load.
  Node ld2;
  ld2.op = OpClass::kLoad;
  ld2.mem = MemRef{1, 0, 8};
  const NodeId l2 = g.AddNode(std::move(ld2));
  const NodeId add2 = g.AddNode(OpClass::kFAdd);
  g.AddFlow(l2, add2, 0);
  g.AddFlow(add, add2, 0);

  const auto ov = ClassifyBindingPrefetch(g, m, 1000, PrefetchMode::kSelective);
  EXPECT_EQ(ov.For(l, m.lat.load_hit), m.lat.load_hit);    // on recurrence
  EXPECT_EQ(ov.For(l2, m.lat.load_hit), m.lat.load_miss);  // free load
}

TEST(Prefetch, SelectiveSkipsShortTrips) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeVadd();
  const auto ov = ClassifyBindingPrefetch(loop.ddg, m, /*trip=*/8,
                                          PrefetchMode::kSelective);
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    EXPECT_EQ(ov.For(v, 0), 0);  // nothing bound: trip below threshold
  }
}

}  // namespace
}  // namespace hcrf::memsim
