// Benchmark-side tracing: spans recorded from the benchmark's own files
// around each call into a library layer. The library is not instrumented
// for this; its own obs::Tracer spans (engine phases) are folded in when
// present.
//
// Spans live in per-thread in-memory buffers and are written out once, at
// the end of a traced run, as Chrome trace JSON plus a per-layer self-time
// table. A span's self time is its duration minus the time its child spans
// (same thread, opened while it was open) cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* layer = "";
  const char* name = "";
  double t0_us = 0;
  double t1_us = 0;
  double child_us = 0;  ///< Summed durations of direct children.
  int parent = -1;      ///< Index in the same thread's buffer, or -1.
  long request = -1;    ///< Request id shared by a request's spans.
};

/// Aggregate of one "layer.name" key.
struct SpanStats {
  long count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<double> durations_us;
};

namespace spans {

/// Arms or disarms recording for the whole process. Spans opened while
/// disarmed record nothing and cost one relaxed load.
void SetEnabled(bool on);
bool Enabled();

/// Microseconds since the recorder's epoch (process start of tracing).
double NowUs();

/// Sets the request id stamped on spans opened by this thread.
void SetRequest(long id);

/// Per-key aggregates over every recorded span ("layer.name" keys), with
/// the obs::Tracer's engine spans folded in under "engine.<name>".
std::map<std::string, SpanStats> Aggregate();

/// Writes every recorded span (and the obs::Tracer export) as Chrome
/// trace_event JSON. Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path);

/// Drops every recorded span.
void Clear();

}  // namespace spans

/// RAII span. Records [construction, destruction) under `layer.name` when
/// the recorder is armed.
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;  ///< Slot in this thread's buffer; -1 when disarmed.
};

}  // namespace perfbench
