// Allocation gate of the scheduling engine. This binary replaces the global
// operator new/delete with a per-thread counter and schedules every kernel
// plus a 64-loop synthetic slice on four organizations (monolithic, pure
// clustered, and two hierarchical). After a warm-up pass has grown the
// calling thread's engine workspace, a second pass on the same thread must
// show:
//  * zero allocations in every II attempt after a call's first, and
//  * no allocation in a MirsHC call beyond copy-constructing its
//    ScheduleResult, and at most one per flat table in that copy (the
//    result owns a copy of the final graph), whatever the graph's size.
// A change that brings back a per-attempt vector, map or graph copy fails
// here, not in a benchmark. Two more tests check that a run at an outsized
// II, or with an outsized edge table, does not leave its tables on the
// thread.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "workload/suite_cache.h"

namespace {

thread_local long t_allocations = 0;
/// Bytes this thread holds through operator new (usable sizes).
thread_local long t_live_bytes = 0;

void* Counted(void* p) {
  if (p != nullptr) {
    ++t_allocations;
    t_live_bytes += static_cast<long>(malloc_usable_size(p));
  }
  return p;
}

void* CountedAlloc(std::size_t n) { return Counted(std::malloc(n == 0 ? 1 : n)); }

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return Counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}

// Out of line, so the compiler does not pair an inlined `new` with this
// `free` and warn about a mismatch the replacement makes intentional.
[[gnu::noinline]] void Release(void* p) {
  if (p != nullptr) t_live_bytes -= static_cast<long>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace hcrf {
namespace {

/// Allocations a ScheduleResult copy may make: one per flat table (the
/// graph's name, node, edge and invariant-use tables, the schedule's
/// placements and the overrides), whatever the graph's size.
constexpr long kResultTables = 6;

MachineConfig OrgMachine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

struct PassTotals {
  long calls = 0;
  long call_allocations = 0;    ///< Inside MirsHC.
  long result_allocations = 0;  ///< Copy-constructing its results.
  long max_result = 0;          ///< The most one result copy allocated.
  long max_call_excess = 0;     ///< The most a call allocated beyond it.
  long attempts = 0;
  long later_attempts = 0;              ///< Attempts after a call's first.
  long later_attempt_allocations = 0;
};

/// Schedules `loops` on `m` twice per loop: once through MirsHC (counted
/// per call), and once as the driver's cold walk over `ctx`, rebound per
/// loop, with every attempt counted on its own. With `check`, asserts the
/// gate on every loop.
void RunPass(const std::vector<const workload::Loop*>& loops,
             const MachineConfig& m, core::AttemptContext& ctx, bool check,
             PassTotals& t) {
  const core::MirsOptions opt;
  for (const workload::Loop* loop : loops) {
    const DDG& g = loop->ddg;

    long before = t_allocations;
    const core::ScheduleResult res = core::MirsHC(g, m, opt);
    const long call = t_allocations - before;
    before = t_allocations;
    const core::ScheduleResult copy(res);
    const long result = t_allocations - before;
    ++t.calls;
    t.call_allocations += call;
    t.result_allocations += result;
    t.max_result = std::max(t.max_result, result);
    t.max_call_excess = std::max(t.max_call_excess, call - result);
    if (check) {
      EXPECT_LE(result, kResultTables)
          << g.name() << ": " << result << " allocations to copy its result";
      EXPECT_LE(call, result)
          << g.name() << ": " << call << " allocations in MirsHC, "
          << result << " to copy its result";
    }

    // The same walk as EngineDriver::RunSerial: TryII from MII up, with
    // its escalation step, until an attempt schedules or max_ii is passed.
    const std::vector<NodeId> order = sched::HrmsOrder(g, m.lat);
    ctx.Bind(g, m, opt, {}, order);
    int ii = ComputeMII(g, m).MII();
    int failures = 0;
    long attempts = 0;
    bool scheduled = false;
    while (!scheduled && ii <= opt.max_ii) {
      before = t_allocations;
      scheduled = ctx.TryII(ii) == core::AttemptStatus::kScheduled;
      const long allocated = t_allocations - before;
      if (attempts++ > 0) {
        ++t.later_attempts;
        t.later_attempt_allocations += allocated;
        if (check) {
          EXPECT_EQ(allocated, 0) << g.name() << ": attempt " << attempts
                                  << " (II " << ii << ") allocated";
        }
      }
      if (scheduled) break;
      ++failures;
      ii += failures > 24 ? std::max(1, ii / 8) : 1;
      ctx.instr().IIRestart(ii);
    }
    t.attempts += attempts;
    ASSERT_EQ(scheduled, res.ok) << g.name();
    if (scheduled) {
      ASSERT_EQ(ii, res.ii) << g.name();
    }
  }
}

TEST(AllocGate, SteadyStateAttemptsAndCalls) {
  std::vector<const workload::Loop*> loops;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  for (size_t i = 0; i < kernels.size(); ++i) loops.push_back(&kernels[i]);
  const workload::Suite synth =
      workload::SuiteSlice(workload::SharedSyntheticSuite(), 64);
  for (size_t i = 0; i < synth.size(); ++i) loops.push_back(&synth[i]);
  ASSERT_EQ(synth.size(), 64u);

  long later_attempts = 0;
  for (const std::string rf : {"S64", "4C32/1-1", "4C16S64/2-1",
                               "8C8S64/2-1"}) {
    SCOPED_TRACE(rf);
    const MachineConfig m = OrgMachine(rf);
    core::AttemptContext ctx;
    PassTotals warm_up;  // grows the thread's engine workspace and ctx
    RunPass(loops, m, ctx, /*check=*/false, warm_up);
    PassTotals t;
    RunPass(loops, m, ctx, /*check=*/true, t);
    later_attempts += t.later_attempts;
    std::printf(
        "%-12s %ld calls: %.1f allocations per call, %.1f to copy the "
        "result (at most %ld; calls at most %ld beyond it); %ld attempts, "
        "%ld after a call's first, %ld allocations in those\n",
        rf.c_str(), t.calls,
        static_cast<double>(t.call_allocations) / static_cast<double>(t.calls),
        static_cast<double>(t.result_allocations) /
            static_cast<double>(t.calls),
        t.max_result, t.max_call_excess,
        t.attempts, t.later_attempts, t.later_attempt_allocations);
  }
  // Some loop must escalate past its first II, or the per-attempt half of
  // the gate checks nothing.
  EXPECT_GT(later_attempts, 0);
}

/// Schedules `g` on `m` after a tiny run has built the thread's workspace
/// and every lazily made static, and returns the bytes the run left on
/// the thread.
long BytesLeftByRun(const DDG& g, const MachineConfig& m, int* ii) {
  DDG tiny("tiny");
  tiny.AddNode(OpClass::kFAdd);
  EXPECT_TRUE(core::MirsHC(tiny, m).ok);
  const long before = t_live_bytes;
  {
    const core::ScheduleResult res = core::MirsHC(g, m);
    EXPECT_TRUE(res.ok);
    *ii = res.ii;
  }
  return t_live_bytes - before;
}

// Runs that outgrow what a thread may keep give their workspace back, so
// the thread holds no more memory after them than before.
TEST(AllocGate, OutsizedRunGivesItsTablesBack) {
  // A two-node recurrence of 1000-cycle adds schedules at II 2000. On a
  // machine with 64 FUs per cluster, each of the run's two reservation
  // tables grows to about 4 x 2000 x 65 entries.
  MachineConfig wide = OrgMachine("4C16S64/2-1");
  wide.num_fus = 4 * 64;
  wide.lat.fadd = 1000;
  DDG rec("outsized");
  const NodeId a = rec.AddNode(OpClass::kFAdd);
  const NodeId b = rec.AddNode(OpClass::kFAdd);
  rec.AddEdge(a, b, DepKind::kFlow, 0);
  rec.AddEdge(b, a, DepKind::kFlow, 1);
  int ii = 0;
  EXPECT_LE(BytesLeftByRun(rec, wide, &ii), 0) << "reservation tables";
  EXPECT_EQ(ii, 2000);

  // The working graph's edge table keeps every edge an attempt added until
  // the next reset, so it grows with edge churn as well as with the loop.
  // 245 adds each ordered before 245 others by a memory dependence, 60,025
  // edges, fill it past the 2 MiB a thread may keep.
  DDG dense("edge-heavy");
  constexpr NodeId kSide = 245;
  for (NodeId v = 0; v < 2 * kSide; ++v) dense.AddNode(OpClass::kFAdd);
  for (NodeId x = 0; x < kSide; ++x) {
    for (NodeId y = kSide; y < 2 * kSide; ++y) {
      dense.AddEdge(x, y, DepKind::kMem, 0);
    }
  }
  EXPECT_LE(BytesLeftByRun(dense, OrgMachine("4C16S64/2-1"), &ii), 0)
      << "edge table";
}

}  // namespace
}  // namespace hcrf
