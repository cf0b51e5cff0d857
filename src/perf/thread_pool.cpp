#include "perf/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hcrf::perf {

WorkerPool& WorkerPool::Shared() {
  static obs::Gauge& workers = obs::GetGauge("pool.workers");
  static WorkerPool* pool = [] {
    auto* p = new WorkerPool();  // leaked: lives for the process
    workers.Set(p->num_workers());
    return p;
  }();
  return *pool;
}

WorkerPool::WorkerPool(int threads) {
  // Default: hardware_concurrency - 1 workers. The submitter participates
  // through TaskGroup::RunAndWait's stealing, so hw-1 workers + the caller
  // saturate the machine without oversubscribing it; on a single-core host
  // that is 0 workers and batches run serially on the caller.
  const int n =
      threads >= 0
          ? threads
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) -
                1;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      obs::Tracer::SetThreadName("pool-worker-" + std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::WorkerLoop() {
  mu_.lock();
  while (true) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
    if (stop_) break;
    Task t = std::move(queue_.front());
    queue_.pop_front();
    mu_.unlock();
    t.fn();
    mu_.lock();
    // The group outlives its tasks (RunAndWait cannot return while
    // pending_ > 0), so touching it under the pool mutex is safe.
    t.group->FinishFromWorker();
  }
  mu_.unlock();
}

void TaskGroup::Submit(std::function<void()> fn) {
  static obs::Counter& tasks = obs::GetCounter("pool.tasks");
  tasks.Add(1);
  {
    MutexLock lk(pool_.mu_);
    pool_.queue_.push_back(WorkerPool::Task{this, std::move(fn)});
    ++pending_;
  }
  pool_.work_cv_.NotifyOne();
}

bool TaskGroup::OthersWaiting() {
  MutexLock lk(pool_.mu_);
  return std::any_of(
      pool_.queue_.begin(), pool_.queue_.end(),
      [this](const WorkerPool::Task& t) { return t.group != this; });
}

void TaskGroup::RunAndWait() {
  pool_.mu_.lock();
  while (pending_ > 0) {
    // Steal one of our own still-queued tasks and run it inline. This is
    // the no-deadlock guarantee: whatever the pool's saturation, every
    // queued task of this group is runnable by the thread that waits on it.
    auto it = pool_.queue_.begin();
    for (; it != pool_.queue_.end(); ++it) {
      if (it->group == this) break;
    }
    if (it != pool_.queue_.end()) {
      static obs::Counter& steals = obs::GetCounter("pool.inline_steals");
      steals.Add(1);
      std::function<void()> fn = std::move(it->fn);
      pool_.queue_.erase(it);
      pool_.mu_.unlock();
      fn();
      pool_.mu_.lock();
      --pending_;  // our own completion; no one else waits on this group
      continue;
    }
    done_cv_.Wait(pool_.mu_);
  }
  pool_.mu_.unlock();
}

}  // namespace hcrf::perf
