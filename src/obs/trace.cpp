#include "obs/trace.h"

#include <cstdio>
#include <string_view>

#include "obs/metrics.h"

namespace hcrf::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

// Same rationale as in metrics.cpp: obs is below io in the layering, so it
// formats its own JSON.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendTs(std::string& out, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out += buf;
}

}  // namespace

Tracer& Tracer::Shared() {
  static Tracer* tracer = new Tracer();  // leaked: lives for the process
  return *tracer;
}

void Tracer::Start() {
  MutexLock lk(mu_);
  logs_.clear();
  start_ = Clock::now();
  // Bumping the epoch invalidates every thread's cached buffer pointer.
  // The enable store must come last: it is the release half of the
  // publication pair with TraceEnabled()'s acquire load, making the epoch
  // bump and the clock-base write above visible to any thread that
  // observes tracing as on (long-lived pool workers have no other
  // happens-before edge with this call).
  epoch_.fetch_add(1, std::memory_order_release);
  internal::g_trace_enabled.store(true, std::memory_order_release);
}

void Tracer::Stop() {
  internal::g_trace_enabled.store(false, std::memory_order_release);
}

double Tracer::UsSinceStart(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - start_).count();
}

Tracer::ThreadLog* Tracer::LocalLog() {
  struct Cache {
    ThreadLog* log = nullptr;
    std::uint64_t epoch = 0;
  };
  thread_local Cache cache;
  const std::uint64_t ep = epoch_.load(std::memory_order_acquire);
  if (cache.log == nullptr || cache.epoch != ep) {
    MutexLock lk(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    ThreadLog* log = logs_.back().get();
    log->tid = static_cast<int>(logs_.size());
    const auto it = names_.find(std::this_thread::get_id());
    log->name = it != names_.end() ? it->second
                                   : "thread-" + std::to_string(log->tid);
    cache.log = log;
    cache.epoch = ep;
  }
  return cache.log;
}

void Tracer::Instant(const char* cat, const char* name, int ii, int node) {
  LocalLog()->events.push_back(
      {'i', cat, name, UsSinceStart(Clock::now()), 0, ii, node, {}});
}

std::string Tracer::ExportJson() const {
  MutexLock lk(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (const auto& log : logs_) {
    sep();
    out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(log->tid) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           JsonEscape(log->name) + "\"}}";
    for (const TraceEvent& ev : log->events) {
      sep();
      out += "{\"ph\": \"";
      out += ev.ph;
      out += "\", \"pid\": 1, \"tid\": " + std::to_string(log->tid) +
             ", \"cat\": \"" + JsonEscape(ev.cat) + "\", \"name\": \"" +
             JsonEscape(ev.name) + "\", \"ts\": ";
      AppendTs(out, ev.ts_us);
      if (ev.ph == 'X') {
        out += ", \"dur\": ";
        AppendTs(out, ev.dur_us);
      } else if (ev.ph == 'i') {
        out += ", \"s\": \"t\"";  // thread-scoped instant
      }
      std::string args;
      if (ev.ii >= 0) args += "\"ii\": " + std::to_string(ev.ii);
      if (ev.node >= 0) {
        if (!args.empty()) args += ", ";
        args += "\"node\": " + std::to_string(ev.node);
      }
      if (!ev.detail.empty()) {
        if (!args.empty()) args += ", ";
        args += "\"detail\": \"" + JsonEscape(ev.detail) + "\"";
      }
      if (!args.empty()) out += ", \"args\": {" + args + "}";
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<Tracer::ThreadSnapshot> Tracer::Snapshot() const {
  MutexLock lk(mu_);
  std::vector<ThreadSnapshot> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) {
    out.push_back(ThreadSnapshot{log->tid, log->name, log->events});
  }
  return out;
}

void Tracer::SetThreadName(std::string name) {
  Tracer& t = Shared();
  MutexLock lk(t.mu_);
  t.names_[std::this_thread::get_id()] = std::move(name);
}

PhaseName PhaseName::Timed(const char* cat, const char* name) {
  PhaseName n(cat, name);
  n.seconds = &GetHistogram(std::string("phase.") + name + ".seconds");
  return n;
}

void Phase::Close() {
  const Clock::time_point t1 = Clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0_).count();
  if (name_.seconds != nullptr) {
    name_.seconds->Record(seconds);
    if (slot_ != nullptr) *slot_ += seconds;
  }
  if (armed_) {
    Tracer& t = Tracer::Shared();
    t.LocalLog()->events.push_back({'X', name_.cat, name_.name,
                                    t.UsSinceStart(t0_), seconds * 1e6, ii_,
                                    node_, std::move(detail_)});
  }
}

}  // namespace hcrf::obs
