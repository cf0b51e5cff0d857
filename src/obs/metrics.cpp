#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

namespace hcrf::obs {
namespace {

// obs sits below io in the layering (core depends on obs), so it carries
// its own minimal JSON formatting instead of pulling in io/json.
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

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

unsigned Counter::ShardIndex() {
  // One hash per thread: the shard assignment must be stable so a thread's
  // increments always hit the same cacheline.
  thread_local const unsigned shard = static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards);
  return shard;
}

void Histogram::Record(double seconds) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(std::llround(std::max(0.0, seconds) * 1e9),
                    std::memory_order_relaxed);
  // Smallest bucket whose upper bound covers the sample: bucket 0 up to
  // 1 us, bucket i up to 2^i us (the documented (2^(i-1), 2^i] ranges,
  // exact at the power-of-two boundaries).
  int idx = 0;
  const double us = seconds * 1e6;
  double upper = 1.0;
  while (idx < kBuckets - 1 && us > upper) {
    upper *= 2.0;
    ++idx;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::BucketUpperSeconds(int i) {
  return std::ldexp(1e-6, i);  // 2^i microseconds
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry& Registry::Shared() {
  static Registry* r = new Registry();  // leaked: lives for the process
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  MutexLock lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name))))
             .first;
  }
  return *it->second;
}

std::string Registry::Table() const {
  MutexLock lk(mu_);
  std::string out;
  std::size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_)
    width = std::max(width, name.size());
  const auto pad = [&](const std::string& name) {
    return name + std::string(width + 2 - name.size(), ' ');
  };
  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, c] : counters_) {
      out += "  " + pad(name) + std::to_string(c->value()) + "\n";
    }
  }
  if (!gauges_.empty()) {
    out += "gauges:\n";
    for (const auto& [name, g] : gauges_) {
      out += "  " + pad(name) + std::to_string(g->value()) + "\n";
    }
  }
  if (!histograms_.empty()) {
    out += "histograms:\n";
    for (const auto& [name, h] : histograms_) {
      const long n = h->count();
      const double sum = h->sum_seconds();
      out += "  " + pad(name) + "count " + std::to_string(n) + "  sum " +
             FormatDouble(sum) + "s";
      if (n > 0) out += "  mean " + FormatDouble(sum / n) + "s";
      out += "\n";
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string Registry::Json() const {
  MutexLock lk(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const long n = h->count();
    const double sum = h->sum_seconds();
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(n) + ", \"sum_seconds\": " + FormatDouble(sum);
    if (n > 0) out += ", \"mean_seconds\": " + FormatDouble(sum / n);
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const long b = h->bucket(i);
      if (b == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      // Appended piecewise: `"[" + std::string&&` trips GCC 12's
      // -Wrestrict false positive in Release builds.
      out += '[';
      out += FormatDouble(Histogram::BucketUpperSeconds(i));
      out += ", ";
      out += std::to_string(b);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void Registry::ResetForTest() {
  MutexLock lk(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

Counter& GetCounter(std::string_view name) {
  return Registry::Shared().counter(name);
}

Gauge& GetGauge(std::string_view name) {
  return Registry::Shared().gauge(name);
}

Histogram& GetHistogram(std::string_view name) {
  return Registry::Shared().histogram(name);
}

}  // namespace hcrf::obs
