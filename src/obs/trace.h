// Span-based flight recorder with Chrome trace_event JSON export.
//
// The scheduling stack is instrumented with RAII `TraceSpan`s (loop,
// II attempt, placement / spill / validate / eject-cascade phases) and
// instant events (the SchedEvent funnel).
// When the tracer is stopped — the default — every instrumentation site
// collapses to one relaxed atomic load, so tracing support costs nothing
// on the hot path. When started, each thread appends to its own private
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
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace hcrf::obs {

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

  /// Microseconds since Start() on the tracer's monotonic clock.
  double NowUs() const;

  /// Appends a completed span to the calling thread's buffer.
  void Complete(const char* cat, const char* name, double ts_us, double dur_us,
                int ii, int node, std::string detail);
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

  Tracer() = default;
  /// The calling thread's buffer for the current epoch (registers one on
  /// first use after each Start()).
  ThreadLog* LocalLog() HCRF_EXCLUDES(mu_);

  // mu_ guards registration state: the log list and the thread-name map.
  // The ThreadLogs themselves are single-writer by construction (each
  // thread appends to its own buffer with no lock); readers (ExportJson /
  // Snapshot) rely on the documented quiescence contract, not on mu_.
  // `start_` is deliberately unguarded: it is written by Start() under the
  // same quiescence contract and read on every hot-path NowUs() call —
  // publication happens through the g_trace_enabled release store in
  // Start() paired with the acquire load in TraceEnabled().
  mutable Mutex mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::chrono::steady_clock::time_point start_{};
  std::vector<std::unique_ptr<ThreadLog>> logs_ HCRF_GUARDED_BY(mu_);
  std::map<std::thread::id, std::string> names_ HCRF_GUARDED_BY(mu_);
};

/// RAII span: samples the clock at construction if tracing is on, records
/// a complete event at destruction. Constructing one while tracing is off
/// costs a single relaxed load. Nested spans on one thread close inner-
/// first, which is exactly the containment the trace viewers (and the
/// nesting tests) expect.
class TraceSpan {
 public:
  explicit TraceSpan(const char* cat, const char* name, int ii = -1,
                     int node = -1)
      : armed_(TraceEnabled()), cat_(cat), name_(name), ii_(ii), node_(node) {
    if (armed_) t0_ = Tracer::Shared().NowUs();
  }
  ~TraceSpan() {
    if (armed_) Finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool armed() const { return armed_; }
  /// Attaches args.detail to the span (no-op when not armed).
  void set_detail(std::string detail) {
    if (armed_) detail_ = std::move(detail);
  }
  void set_ii(int ii) { ii_ = ii; }

 private:
  void Finish();

  bool armed_;
  const char* cat_;
  const char* name_;
  int ii_;
  int node_;
  double t0_ = 0;
  std::string detail_;
};

}  // namespace hcrf::obs
