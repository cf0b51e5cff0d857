// The one timing primitive, `Phase`, and the span-based flight recorder
// with Chrome trace_event JSON export.
//
// The scheduling stack is instrumented with RAII `Phase`s (request, cache
// probe, loop, II attempt, placement / spill / validate / eject-cascade
// ...) and instant events (the SchedEvent funnel).
// When the tracer is stopped — the default — every untimed phase
// collapses to one acquire load, so tracing support costs nothing on the
// hot path. When started, each thread appends to its own private
// buffer (no locks, no cross-thread cacheline traffic), and ExportJson
// renders everything in the Chrome `trace_event` format that
// chrome://tracing and https://ui.perfetto.dev load directly: one track
// per thread, so a batch's loops show side by side on the worker tracks.
//
// Concurrency contract: Start / Stop / ExportJson / Snapshot require
// quiescence — no thread may be inside an instrumented region while the
// tracer is being started, stopped or exported. The CLI guarantees this
// by starting the tracer before any scheduling work and stopping it after
// all pools are idle. SetThreadName may be called from any thread at any
// time (worker threads name themselves at startup).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace hcrf::obs {

class Histogram;

/// The observability layer's one clock; nothing else in src/ reads a clock.
using Clock = std::chrono::steady_clock;

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True while the process-wide tracer is recording. One acquire load —
/// free on x86, and it pairs with the release store in Tracer::Start() so
/// a long-lived pool worker that observes `true` also observes the epoch
/// and clock base written just before (without this, TSan rightly flags
/// the worker's NowUs() read of the clock base as racing Start()'s write).
/// Cheap enough for per-placement call sites.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_acquire);
}

/// One recorded event. `cat` and `name` must be string literals (they are
/// stored as raw pointers and rendered at export time).
struct TraceEvent {
  char ph = 'X';          ///< 'X' complete span, 'i' instant.
  const char* cat = "";   ///< Category (trace viewers filter on it).
  const char* name = "";  ///< Event name.
  double ts_us = 0;       ///< Microseconds since Start().
  double dur_us = 0;      ///< Span duration ('X' only).
  int ii = -1;            ///< Rendered as args.ii when >= 0.
  int node = -1;          ///< Rendered as args.node when >= 0.
  std::string detail;     ///< Rendered as args.detail when non-empty.
};

class Tracer {
 public:
  static Tracer& Shared();

  /// Discards any previous recording and starts a new one. Threads
  /// re-register their buffers lazily on their next event (an epoch bump
  /// invalidates cached per-thread buffer pointers).
  void Start() HCRF_EXCLUDES(mu_);
  /// Stops recording; the events stay buffered for ExportJson/Snapshot.
  void Stop();

  /// Microseconds from Start() to `t`.
  double UsSinceStart(Clock::time_point t) const;

  /// Appends a thread-scoped instant event at the current time.
  void Instant(const char* cat, const char* name, int ii, int node);

  /// Names the calling thread's track ("main", "pool-worker-2", ...).
  /// Unnamed threads render as "thread-N" in registration order.
  static void SetThreadName(std::string name);

  /// The whole recording as a Chrome trace_event JSON document
  /// ({"traceEvents": [...]}), with one 'M' thread_name metadata record
  /// per thread track.
  std::string ExportJson() const;

  /// Structured view of the recording for tests: per-thread event lists in
  /// append order (append order is completion order for spans, so children
  /// precede their parents).
  struct ThreadSnapshot {
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
  };
  std::vector<ThreadSnapshot> Snapshot() const;

 private:
  struct ThreadLog {
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
  };

  friend class Phase;  // appends its complete event at close
  Tracer() = default;
  /// The calling thread's buffer for the current epoch (registers one on
  /// first use after each Start()).
  ThreadLog* LocalLog() HCRF_EXCLUDES(mu_);

  // mu_ guards registration state: the log list and the thread-name map.
  // The ThreadLogs themselves are single-writer by construction (each
  // thread appends to its own buffer with no lock); readers (ExportJson /
  // Snapshot) rely on the documented quiescence contract, not on mu_.
  // `start_` is deliberately unguarded: it is written by Start() under the
  // same quiescence contract and read on every recorded event —
  // publication happens through the g_trace_enabled release store in
  // Start() paired with the acquire load in TraceEnabled().
  mutable Mutex mu_;
  std::atomic<std::uint64_t> epoch_{0};
  Clock::time_point start_{};
  std::vector<std::unique_ptr<ThreadLog>> logs_ HCRF_GUARDED_BY(mu_);
  std::map<std::thread::id, std::string> names_ HCRF_GUARDED_BY(mu_);
};

/// A phase's identity: the trace category and name (string literals: they
/// are stored as pointers) and, for a timed phase, its
/// `phase.<name>.seconds` histogram. An untimed phase names itself at its
/// call site (`obs::Phase p({"phase", "spill"})`); a timed one is a static
/// there, so its histogram is resolved once.
struct PhaseName {
  constexpr PhaseName(const char* category, const char* phase)
      : cat(category), name(phase) {}
  static PhaseName Timed(const char* cat, const char* name);

  const char* cat;
  const char* name;
  Histogram* seconds = nullptr;  ///< Null for an untimed phase.
};

/// RAII phase scope. It reads the clock once when it opens and once when
/// it closes, and those two reads feed the trace (one complete 'X' event,
/// only while tracing) and, for a timed phase, its histogram and the
/// caller's slot, which gains the elapsed seconds. An untimed phase while
/// tracing is off reads no clock: it costs the one acquire load of
/// TraceEnabled() and allocates nothing. Nested phases on one thread close
/// inner-first, which is exactly the containment the trace viewers (and
/// the nesting tests) expect.
class Phase {
 public:
  explicit Phase(const PhaseName& name, int ii = -1, int node = -1)
      : name_(name), armed_(TraceEnabled()), ii_(ii), node_(node) {
    if (armed_ || name_.seconds != nullptr) t0_ = Clock::now();
  }
  /// `name` must be timed (PhaseName::Timed).
  Phase(const PhaseName& name, double& slot) : Phase(name) { slot_ = &slot; }
  ~Phase() {
    if (armed_ || name_.seconds != nullptr) Close();
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  bool armed() const { return armed_; }
  /// Attaches args.detail to the trace event (copied only when armed).
  void set_detail(std::string_view detail) {
    if (armed_) detail_.assign(detail);
  }
  /// Seconds from `outer` opening to this phase opening; both timed.
  double OpenedAfter(const Phase& outer) const {
    return std::chrono::duration<double>(t0_ - outer.t0_).count();
  }

 private:
  void Close();

  const PhaseName name_;
  bool armed_;
  int ii_;
  int node_;
  double* slot_ = nullptr;
  Clock::time_point t0_{};
  std::string detail_;
};

}  // namespace hcrf::obs
