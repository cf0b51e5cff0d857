// Clang thread-safety annotations and the annotated mutex vocabulary.
//
// The concurrency machinery (perf::WorkerPool and its TaskGroups, the
// MII sweep cache, the metrics registry, the tracer) documents its lock
// discipline with these macros; under clang, `-Wthread-safety` then proves
// at compile time that every access to a HCRF_GUARDED_BY member happens
// with the right mutex held and that every HCRF_REQUIRES contract is met
// at each call site. Under GCC (which has no thread-safety analysis) every
// macro expands to nothing and hcrf::Mutex compiles down to a plain
// std::mutex wrapper, so annotations are free to sprinkle everywhere.
//
// Vocabulary (mirrors the Abseil/Clang canonical set):
//  * HCRF_CAPABILITY / HCRF_SCOPED_CAPABILITY — class-level markers.
//  * HCRF_GUARDED_BY(mu) — member readable/writable only with mu held.
//  * HCRF_REQUIRES(mu)   — function demands mu held by the caller.
//  * HCRF_ACQUIRE / HCRF_RELEASE / HCRF_TRY_ACQUIRE — lock transitions.
//  * HCRF_EXCLUDES(mu)   — function must NOT be entered with mu held
//                          (deadlock documentation, e.g. re-entrancy bans).
//  * HCRF_NO_THREAD_SAFETY_ANALYSIS — per-function opt-out. Every use must
//    carry a comment justifying why the analysis cannot see the invariant.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define HCRF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HCRF_THREAD_ANNOTATION(x)  // GCC: annotations compile away.
#endif

#define HCRF_CAPABILITY(x) HCRF_THREAD_ANNOTATION(capability(x))
#define HCRF_SCOPED_CAPABILITY HCRF_THREAD_ANNOTATION(scoped_lockable)
#define HCRF_GUARDED_BY(x) HCRF_THREAD_ANNOTATION(guarded_by(x))
#define HCRF_PT_GUARDED_BY(x) HCRF_THREAD_ANNOTATION(pt_guarded_by(x))
#define HCRF_REQUIRES(...) \
  HCRF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define HCRF_REQUIRES_SHARED(...) \
  HCRF_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define HCRF_ACQUIRE(...) \
  HCRF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HCRF_RELEASE(...) \
  HCRF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define HCRF_TRY_ACQUIRE(...) \
  HCRF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define HCRF_EXCLUDES(...) HCRF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define HCRF_ASSERT_CAPABILITY(x) \
  HCRF_THREAD_ANNOTATION(assert_capability(x))
#define HCRF_RETURN_CAPABILITY(x) HCRF_THREAD_ANNOTATION(lock_returned(x))
#define HCRF_NO_THREAD_SAFETY_ANALYSIS \
  HCRF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace hcrf {

/// std::mutex with the capability attribute the analysis needs. The
/// lock/unlock surface is deliberately the standard BasicLockable one so
/// the wrapper interoperates with std:: lock machinery where annotations
/// are not needed.
class HCRF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HCRF_ACQUIRE() { mu_.lock(); }
  void unlock() HCRF_RELEASE() { mu_.unlock(); }
  bool try_lock() HCRF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for the scope-shaped critical sections (the std::lock_guard
/// replacement). Non-relockable: code that must drop and re-take the mutex
/// around a blocking region (the pools' work loops) uses explicit
/// Mutex::lock/unlock pairs instead, which the analysis tracks just as
/// precisely.
class HCRF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HCRF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HCRF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits directly on an hcrf::Mutex, so waiting
/// code keeps a single annotated capability instead of smuggling the lock
/// through an opaque std::unique_lock the analysis cannot follow. Wait
/// requires the mutex held and returns with it held (it is released only
/// inside the wait, which is invisible to — and safely over-approximated
/// by — the analysis). Built on condition_variable_any; the extra internal
/// hop vs. std::condition_variable sits on the blocking slow path only.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) HCRF_REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hcrf
