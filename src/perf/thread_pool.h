// The process worker pool.
//
// One pool runs all of the process's parallel work: the loops of a
// scheduling batch (SchedulerService::ParallelFor) and the schedule
// cache's write-behind. Work arrives
// as TaskGroup fan-outs on one plain multi-group task queue that any
// thread — including one of the pool's own workers — may feed. Saturation
// can never deadlock: a thread waiting on its group steals that group's
// still-queued tasks and runs them inline, so a fully busy (or even
// worker-less) pool degrades to serial execution on the submitter, nested
// fan-outs are safe, and concurrent fan-outs interleave on the queue
// instead of waiting for one another.
//
// Lock discipline (machine-checked under clang -Wthread-safety): the
// pool's `mu_` guards the queue, the stop flag and every group's pending
// count. Blocking regions use explicit Mutex::lock/unlock pairs rather
// than scoped locks because the work loops drop the mutex around each
// task.
#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace hcrf::perf {

class TaskGroup;

class WorkerPool {
 public:
  /// The process-wide pool (hardware_concurrency - 1 workers — the
  /// submitting thread is the remaining lane — lazily started).
  static WorkerPool& Shared();

  /// `threads` = worker-thread count. The submitter is not counted here
  /// (it participates through TaskGroup::RunAndWait's stealing), so 0 is a
  /// valid, fully inline configuration; negative values select the
  /// hardware_concurrency - 1 default.
  explicit WorkerPool(int threads = -1);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  friend class TaskGroup;
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void WorkerLoop() HCRF_EXCLUDES(mu_);

  Mutex mu_;  ///< Guards the queue and every group's pending count.
  CondVar work_cv_;
  std::deque<Task> queue_ HCRF_GUARDED_BY(mu_);
  bool stop_ HCRF_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< Written in ctor/dtor only.
};

/// One fan-out of concurrent tasks on a WorkerPool: Submit each task,
/// then RunAndWait — the calling thread runs its own still-queued tasks
/// while waiting, which is what makes nested submission (a pool task that
/// opens its own TaskGroup) safe at any saturation level. The group must
/// outlive its tasks; the destructor drains. A task may Submit to its own
/// group (a yielding task re-queues its remainder that way): the new task
/// is pending before the submitting one completes.
class TaskGroup {
 public:
  explicit TaskGroup(WorkerPool& pool) : pool_(pool) {}
  ~TaskGroup() { RunAndWait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn`; an idle worker (or the waiting submitter) will run it.
  void Submit(std::function<void()> fn) HCRF_EXCLUDES(pool_.mu_);

  /// Runs queued tasks of this group on the calling thread until none are
  /// left, then blocks until the in-flight ones finish. Reentrant: the
  /// group is reusable for another Submit round afterwards.
  void RunAndWait() HCRF_EXCLUDES(pool_.mu_);

  /// True while tasks of other groups wait in the pool's queue. A
  /// long-running task polls it between units of work and, when set,
  /// re-submits its remainder and returns, so queued work elsewhere
  /// (write-behind, another fan-out) never starves behind it.
  bool OthersWaiting() HCRF_EXCLUDES(pool_.mu_);

 private:
  friend class WorkerPool;

  /// Completion bookkeeping for a task a pool worker just ran, called with
  /// the worker's pool mutex held. `pending_` is guarded by `pool_.mu_`,
  /// and the worker holds its own pool's `mu_` — the same object, because
  /// a task only ever sits in the queue of the pool its group was built
  /// on. The analysis cannot prove that aliasing across the Task pointer,
  /// hence the targeted opt-out; the invariant is enforced structurally
  /// (Submit pushes to `pool_.queue_` only).
  void FinishFromWorker() HCRF_NO_THREAD_SAFETY_ANALYSIS {
    if (--pending_ == 0) done_cv_.NotifyAll();
  }

  WorkerPool& pool_;
  int pending_ HCRF_GUARDED_BY(pool_.mu_) = 0;  ///< Submitted, unfinished.
  CondVar done_cv_;
};

}  // namespace hcrf::perf
