// Tests of the one process worker pool: TaskGroup fan-outs, and the
// SchedulerService::ParallelFor batches that ride them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "perf/thread_pool.h"
#include "service/session.h"

namespace hcrf {
namespace {

using perf::TaskGroup;
using perf::WorkerPool;

service::ServiceConfig Width(int threads) {
  service::ServiceConfig config;
  config.threads = threads;
  return config;
}

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  const service::SchedulerService session(Width(0));
  std::vector<std::atomic<int>> hits(257);
  session.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, SerialAndParallelAgree) {
  auto run = [](int threads) {
    const service::SchedulerService session(Width(threads));
    std::vector<long> out(100);
    session.ParallelFor(out.size(),
                        [&](size_t i) { out[i] = static_cast<long>(i * i); });
    return out;
  };
  EXPECT_EQ(run(1), run(0));
}

TEST(ParallelFor, ReusableAcrossManyCalls) {
  const service::SchedulerService session(Width(0));
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    session.ParallelFor(20, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50L * 20);
}

TEST(ParallelFor, EmptyAndSingleItem) {
  const service::SchedulerService session(Width(4));
  std::atomic<int> n{0};
  session.ParallelFor(0, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 0);
  session.ParallelFor(1, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 1);
}

TEST(ParallelFor, WidthIsClampedToThePool) {
  // One lane task per extra lane: a width above workers + 1 would queue
  // lanes no thread is free to run.
  const int workers = WorkerPool::Shared().num_workers();
  const obs::Counter& tasks = obs::GetCounter("pool.tasks");
  const long before = tasks.value();
  std::atomic<int> n{0};
  const service::SchedulerService wide(Width(workers + 64));
  wide.ParallelFor(1000, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 1000);
  EXPECT_EQ(tasks.value() - before, workers);

  const service::SchedulerService serial(Width(1));
  serial.ParallelFor(1000, [&](size_t) { ++n; });
  EXPECT_EQ(tasks.value() - before, workers);
}

// Concurrent fan-outs interleave on the one pool: a small call must not
// queue behind a large call whose items are all still running.
TEST(ParallelFor, ConcurrentCallDoesNotWaitForAnother) {
  using Clock = std::chrono::steady_clock;
  const service::SchedulerService session(Width(0));
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  std::atomic<bool> released{false};
  std::atomic<bool> started{false};
  std::atomic<int> timed_out{0};
  std::thread big([&] {
    session.ParallelFor(8, [&](size_t) {
      started = true;
      while (!released.load()) {
        if (Clock::now() > deadline) {
          ++timed_out;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!started.load()) std::this_thread::yield();
  session.ParallelFor(2, [&](size_t) { released = true; });
  const bool small_first = Clock::now() < deadline;
  big.join();
  EXPECT_TRUE(small_first);
  EXPECT_EQ(timed_out.load(), 0);
}

// Lanes on pool workers yield between items to other groups' queued
// tasks, so background work (the cache's write-behind) runs while a long
// fan-out is still in progress instead of after its last item.
TEST(ParallelFor, WorkerLanesYieldToOtherTasks) {
  if (WorkerPool::Shared().num_workers() == 0) {
    GTEST_SKIP() << "a worker-less pool runs every lane on the caller";
  }
  const service::SchedulerService session(Width(0));
  TaskGroup background(WorkerPool::Shared());
  std::atomic<size_t> done{0};
  std::atomic<size_t> done_when_ran{0};
  session.ParallelFor(200, [&](size_t i) {
    if (i == 0) background.Submit([&] { done_when_ran = done.load(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++done;
  });
  background.RunAndWait();
  EXPECT_LT(done_when_ran.load(), 100u);
}

TEST(WorkerPool, WorkerlessPoolRunsEverythingInline) {
  // 0 workers is a valid configuration: RunAndWait steals the group's own
  // queued tasks and runs them on the caller, so nothing can hang.
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::atomic<int> n{0};
  TaskGroup g(pool);
  for (int i = 0; i < 16; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 16);
}

TEST(WorkerPool, GroupIsReusableAcrossRounds) {
  WorkerPool pool(3);
  std::atomic<long> total{0};
  TaskGroup g(pool);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i) g.Submit([&] { ++total; });
    g.RunAndWait();
  }
  EXPECT_EQ(total.load(), 40L * 8);
}

TEST(WorkerPool, NestedGroupsNeverDeadlock) {
  // More live groups than workers: every outer task opens its own inner
  // group while all workers are already busy running outer tasks. The
  // inner RunAndWait must make progress by stealing its own queued tasks.
  WorkerPool pool(2);
  std::atomic<int> inner_runs{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 6; ++i) {
    outer.Submit([&] {
      TaskGroup inner(pool);
      for (int j = 0; j < 4; ++j) inner.Submit([&] { ++inner_runs; });
      inner.RunAndWait();
    });
  }
  outer.RunAndWait();
  EXPECT_EQ(inner_runs.load(), 6 * 4);
}

TEST(WorkerPool, CallerHelpsUnderSaturation) {
  // Far more tasks than workers; the submitter must chew through the
  // backlog itself instead of blocking until workers get around to it.
  WorkerPool pool(1);
  std::atomic<int> n{0};
  TaskGroup g(pool);
  for (int i = 0; i < 200; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 200);
}

TEST(WorkerPool, SharedInstanceIsStable) {
  WorkerPool& a = WorkerPool::Shared();
  WorkerPool& b = WorkerPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  TaskGroup g(a);
  for (int i = 0; i < 10; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 10);
}

TEST(WorkerPool, DestructorDrainsOutstandingTasks) {
  WorkerPool pool(2);
  std::atomic<int> n{0};
  {
    TaskGroup g(pool);
    for (int i = 0; i < 32; ++i) g.Submit([&] { ++n; });
    // No explicit RunAndWait: ~TaskGroup must drain before `n` dies.
  }
  EXPECT_EQ(n.load(), 32);
}

}  // namespace
}  // namespace hcrf
