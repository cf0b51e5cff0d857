// Sanitizer-shaped concurrency stress tests.
//
// These suites are the TSan gate for the lock-free trace buffers, the
// sharded metric counters and the WorkerPool's queue / pending / CV
// machinery: they hammer exactly the cross-thread paths a race would
// corrupt, with enough iterations for TSan's happens-before engine to see
// every interleaving class. They run in the normal suite too (the
// assertions are meaningful without a sanitizer), just with sizes small
// enough to stay cheap. All randomness is a fixed-seed mt19937: a failing
// wave shape reproduces bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/thread_pool.h"
#include "service/session.h"

namespace hcrf {
namespace {

// N threads emit nested spans, instants, counter bumps and histogram
// samples concurrently while the tracer records. Start/Stop/Export happen
// at quiescence (threads joined) — the documented tracer contract — and
// several epochs exercise the per-thread buffer re-registration path
// (epoch invalidation of cached ThreadLog pointers).
TEST(ConcurrencyStress, TraceAndMetricsHammer) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 250;
  constexpr int kEpochs = 3;

  obs::Tracer& tracer = obs::Tracer::Shared();
  obs::Counter& hammer = obs::GetCounter("stress.trace_hammer");
  obs::Histogram& hist = obs::GetHistogram("stress.trace_hammer_seconds");
  const long hammer_before = hammer.value();
  const long hist_before = hist.count();

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    tracer.Start();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&tracer, &hammer, &hist, t] {
        obs::Tracer::SetThreadName("stress-" + std::to_string(t));
        for (int i = 0; i < kSpansPerThread; ++i) {
          const obs::Phase outer({"stress", "outer"}, /*ii=*/i % 7);
          {
            obs::Phase inner({"stress", "inner"});
            inner.set_detail("wave " + std::to_string(i));
          }
          if (i % 16 == 0) tracer.Instant("stress", "tick", -1, i);
          hammer.Add(1);
          hist.Record(1e-6 * static_cast<double>(i % 32));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    tracer.Stop();

    // Every span of every thread must have landed in some thread buffer.
    long spans = 0;
    long instants = 0;
    for (const auto& ts : tracer.Snapshot()) {
      for (const auto& ev : ts.events) {
        if (ev.ph == 'X') ++spans;
        if (ev.ph == 'i') ++instants;
      }
    }
    EXPECT_EQ(spans, 2L * kThreads * kSpansPerThread);
    EXPECT_EQ(instants,
              static_cast<long>(kThreads) * ((kSpansPerThread + 15) / 16));
    const std::string json = tracer.ExportJson();
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  }

  // The sharded counter and the histogram must not have lost an increment.
  EXPECT_EQ(hammer.value() - hammer_before,
            static_cast<long>(kEpochs) * kThreads * kSpansPerThread);
  EXPECT_EQ(hist.count() - hist_before,
            static_cast<long>(kEpochs) * kThreads * kSpansPerThread);
}

// WorkerPool drain stress with randomized wave shapes and a CAS-min shared
// result: every task tries to publish its candidate unless a strictly
// better one already won. Waves vary task count, candidate distribution
// and nesting (a task that opens its own TaskGroup on the same pool — the
// documented saturation-safe pattern), and groups are reused across rounds.
TEST(ConcurrencyStress, WorkerPoolCancellationDrain) {
  std::mt19937 rng(0xC0FFEEu);
  perf::WorkerPool pool(3);  // dedicated pool: also stresses teardown

  for (int wave = 0; wave < 30; ++wave) {
    const int tasks = 1 + static_cast<int>(rng() % 24);
    const bool nested = (rng() % 3) == 0;
    std::atomic<int> best{1 << 30};
    std::atomic<int> ran{0};
    int expected_min = 1 << 30;

    perf::TaskGroup group(pool);
    for (int i = 0; i < tasks; ++i) {
      const int candidate = static_cast<int>(rng() % 64);
      expected_min = std::min(expected_min, candidate);
      group.Submit([&pool, &best, &ran, candidate, nested] {
        ran.fetch_add(1, std::memory_order_relaxed);
        // CAS-min: no publish iff a strictly lower candidate already won.
        int cur = best.load(std::memory_order_relaxed);
        while (candidate < cur &&
               !best.compare_exchange_weak(cur, candidate,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        }
        if (nested) {
          // Nested fan-out from inside a pool task: must drain even when
          // every worker is busy (the submitter steals its own tasks).
          std::atomic<int> sub_ran{0};
          perf::TaskGroup sub(pool);
          for (int s = 0; s < 3; ++s) {
            sub.Submit([&sub_ran] {
              sub_ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
          sub.RunAndWait();
          EXPECT_EQ(sub_ran.load(std::memory_order_relaxed), 3);
        }
      });
    }
    group.RunAndWait();
    EXPECT_EQ(ran.load(std::memory_order_relaxed), tasks);
    EXPECT_EQ(best.load(std::memory_order_relaxed), expected_min);

    // Reuse the drained group for a second round.
    std::atomic<int> second{0};
    const int extra = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < extra; ++i) {
      group.Submit(
          [&second] { second.fetch_add(1, std::memory_order_relaxed); });
    }
    group.RunAndWait();
    EXPECT_EQ(second.load(std::memory_order_relaxed), extra);
  }
}

// A worker-less pool degrades to inline execution on the submitter; the
// drain logic must not deadlock waiting for workers that do not exist.
TEST(ConcurrencyStress, WorkerPoolWorkerlessDrain) {
  perf::WorkerPool pool(0);
  std::atomic<int> ran{0};
  perf::TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.RunAndWait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 64);
}

// Concurrent ParallelFor calls from independent threads on the shared
// pool, one of them nesting a ParallelFor inside every item: the calls'
// lane tasks interleave on one queue, every item of every call must run
// exactly once, and the nested fan-outs must finish although the outer
// lanes may hold every worker. This is the TSan probe for the lane
// cursor and the TaskGroup handoff under contention.
TEST(ConcurrencyStress, ParallelForConcurrentAndNestedCalls) {
  constexpr int kCallers = 4;
  constexpr int kItems = 512;
  constexpr int kInner = 8;
  const service::SchedulerService session(service::ServiceConfig{});

  std::vector<std::thread> callers;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kItems);
    for (auto& c : h) c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int>> inner(kItems * kInner);
  for (auto& c : inner) c.store(0, std::memory_order_relaxed);
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&session, &hits, &inner, c] {
      session.ParallelFor(kItems, [&](std::size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
        if (c != 0) return;
        session.ParallelFor(kInner, [&](std::size_t j) {
          inner[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  }
  for (std::thread& th : callers) th.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[c][i].load(std::memory_order_relaxed), 1)
          << "call " << c << " item " << i;
    }
  }
  for (int k = 0; k < kItems * kInner; ++k) {
    ASSERT_EQ(inner[k].load(std::memory_order_relaxed), 1) << "nested " << k;
  }
}

}  // namespace
}  // namespace hcrf
