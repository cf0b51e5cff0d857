#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/trace.h"

namespace perfbench {

namespace {

struct ThreadBuffer {
  int tid = 0;
  std::vector<SpanRecord> records;
  std::vector<int> open;  ///< Stack of open span indices.
  long request = -1;
};

std::atomic<bool> g_enabled{false};
const auto g_epoch = std::chrono::steady_clock::now();

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto& all = Buffers();
    all.push_back(std::make_unique<ThreadBuffer>());
    all.back()->tid = static_cast<int>(all.size());
    local = all.back().get();
  }
  return *local;
}

void Fold(std::map<std::string, SpanStats>& out, const std::string& key,
          double dur_us, double self_us) {
  SpanStats& s = out[key];
  ++s.count;
  s.total_us += dur_us;
  s.self_us += self_us;
  s.durations_us.push_back(dur_us);
}

/// Self times of one thread's hcrf::obs::Tracer complete events: nesting is
/// recovered from the intervals (sorted by start, longest first).
void FoldTracerThread(std::map<std::string, SpanStats>& out,
                      std::vector<hcrf::obs::TraceEvent> events) {
  std::erase_if(events, [](const hcrf::obs::TraceEvent& e) { return e.ph != 'X'; });
  std::sort(events.begin(), events.end(),
            [](const hcrf::obs::TraceEvent& a, const hcrf::obs::TraceEvent& b) {
              return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                        : a.dur_us > b.dur_us;
            });
  std::vector<double> child(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!stack.empty()) {
      const hcrf::obs::TraceEvent& top = events[stack.back()];
      if (top.ts_us + top.dur_us > events[i].ts_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += events[i].dur_us;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const hcrf::obs::TraceEvent& e = events[i];
    Fold(out, std::string("engine.") + e.cat + "." + e.name, e.dur_us,
         std::max(0.0, e.dur_us - child[i]));
  }
}

std::string Escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    out += *p;
  }
  return out;
}

}  // namespace

namespace spans {

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void SetRequest(long id) {
  if (Enabled()) Local().request = id;
}

std::map<std::string, SpanStats> Aggregate() {
  std::map<std::string, SpanStats> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : Buffers()) {
    for (const SpanRecord& r : buf->records) {
      const double dur = r.t1_us - r.t0_us;
      Fold(out, std::string(r.layer) + "." + r.name, dur,
           std::max(0.0, dur - r.child_us));
    }
  }
  for (hcrf::obs::Tracer::ThreadSnapshot& t : hcrf::obs::Tracer::Shared().Snapshot()) {
    FoldTracerThread(out, std::move(t.events));
  }
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buf : Buffers()) {
      for (std::size_t i = 0; i < buf->records.size(); ++i) {
        const SpanRecord& r = buf->records[i];
        sep();
        std::fprintf(f,
                     "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"cat\": "
                     "\"%s\", \"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"request\": %ld}}",
                     buf->tid, Escape(r.layer).c_str(),
                     Escape(r.name).c_str(), r.t0_us, r.t1_us - r.t0_us, i,
                     r.parent, r.request);
      }
    }
  }
  for (const hcrf::obs::Tracer::ThreadSnapshot& t : hcrf::obs::Tracer::Shared().Snapshot()) {
    for (const hcrf::obs::TraceEvent& e : t.events) {
      if (e.ph != 'X') continue;
      sep();
      std::fprintf(f,
                   "{\"ph\": \"X\", \"pid\": 2, \"tid\": %d, \"cat\": \"%s\", "
                   "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                   t.tid, Escape(e.cat).c_str(), Escape(e.name).c_str(),
                   e.ts_us, e.dur_us);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : Buffers()) {
    buf->records.clear();
    buf->open.clear();
  }
}

}  // namespace spans

Span::Span(const char* layer, const char* name) {
  if (!spans::Enabled()) return;
  ThreadBuffer& b = Local();
  SpanRecord r;
  r.layer = layer;
  r.name = name;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.request = b.request;
  r.t0_us = spans::NowUs();
  index_ = static_cast<int>(b.records.size());
  b.records.push_back(r);
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& b = Local();
  SpanRecord& r = b.records[static_cast<std::size_t>(index_)];
  r.t1_us = spans::NowUs();
  b.open.pop_back();
  if (r.parent >= 0) {
    b.records[static_cast<std::size_t>(r.parent)].child_us +=
        r.t1_us - r.t0_us;
  }
}

}  // namespace perfbench
