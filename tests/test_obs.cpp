// Observability layer: metrics-registry semantics (sharded counters,
// log-scale histograms, deterministic dumps), flight-recorder invariants
// (well-formed Chrome trace JSON, span nesting per thread track), the
// pure-observer guarantee (tracing on or off, schedules and serialized
// stats stay bit-identical), exact reconciliation of the engine.* registry
// counters with summed ScheduleStats, and the per-request timing
// decomposition of the batch service.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "machine/machine_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, literals). The exporters promise *parseable* JSON; this keeps
// the check in-tree instead of depending on an external parser.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

MachineConfig OrgMachine(const std::string& rf) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(rf)),
                                   hw::RFModelMode::kPaperTable);
}

// RAII guard: every test that starts the tracer stops it on exit, so a
// failing assertion can't leave tracing armed for later tests.
struct TracerGuard {
  ~TracerGuard() { obs::Tracer::Shared().Stop(); }
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterSumsConcurrentIncrementsExactly) {
  obs::Counter& c = obs::GetCounter("test_obs.concurrent_counter");
  const long before = c.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - before, static_cast<long>(kThreads) * kPerThread);
}

TEST(Metrics, RegistryReturnsTheSameInstrumentForAName) {
  obs::Counter& a = obs::GetCounter("test_obs.same_instance");
  obs::Counter& b = obs::GetCounter("test_obs.same_instance");
  EXPECT_EQ(&a, &b);
  // ResetForTest zeroes in place: previously obtained references must
  // stay valid and observe the reset.
  a.Add(7);
  obs::Registry::Shared().ResetForTest();
  EXPECT_EQ(b.value(), 0);
  a.Add(2);
  EXPECT_EQ(b.value(), 2);
}

TEST(Metrics, HistogramBucketsFollowTheDocumentedRanges) {
  obs::Histogram& h = obs::GetHistogram("test_obs.histogram_ranges");
  obs::Registry::Shared().ResetForTest();
  // (sample seconds, expected bucket index): bucket 0 covers <= 1 us,
  // bucket i covers (2^(i-1), 2^i] us — exact at the boundaries.
  const struct { double seconds; int bucket; } cases[] = {
      {0.0, 0},      {0.4e-6, 0}, {1.0e-6, 0},  {1.5e-6, 1},
      {2.0e-6, 1},   {2.5e-6, 2}, {4.0e-6, 2},  {5.0e-6, 3},
      {1.0e-3, 10},  // 1024 us = 2^10
      {2.0, 21},     // 2 s < 2^21 us
  };
  long expected[obs::Histogram::kBuckets] = {};
  double sum = 0;
  for (const auto& c : cases) {
    h.Record(c.seconds);
    ++expected[c.bucket];
    sum += c.seconds;
  }
  EXPECT_EQ(h.count(), static_cast<long>(std::size(cases)));
  EXPECT_NEAR(h.sum_seconds(), sum, 1e-9 * std::size(cases));
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucket(i), expected[i]) << "bucket " << i;
  }
  // Upper bounds double per bucket.
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperSeconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperSeconds(1), 2e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperSeconds(10), 1024e-6);
}

TEST(Metrics, DumpsAreDeterministicAndJsonIsWellFormed) {
  obs::Registry::Shared().ResetForTest();
  obs::GetCounter("test_obs.dump_counter").Add(3);
  obs::GetGauge("test_obs.dump_gauge").Set(-5);
  obs::GetHistogram("test_obs.dump_hist").Record(3e-6);

  const std::string table = obs::Registry::Shared().Table();
  EXPECT_NE(table.find("test_obs.dump_counter"), std::string::npos);
  EXPECT_NE(table.find("test_obs.dump_gauge"), std::string::npos);
  EXPECT_NE(table.find("test_obs.dump_hist"), std::string::npos);
  EXPECT_EQ(table, obs::Registry::Shared().Table());  // deterministic

  const std::string json = obs::Registry::Shared().Json();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test_obs.dump_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.dump_gauge\": -5"), std::string::npos);
  EXPECT_EQ(json, obs::Registry::Shared().Json());
}

// The hard reconciliation gate: engine.* registry counters are flushed
// once per MirsHC from the final ScheduleResult, so after a reset they
// must equal the summed ScheduleStats of every run — exactly.
TEST(Metrics, EngineCountersReconcileExactlyWithScheduleStats) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  obs::Registry::Shared().ResetForTest();

  long runs = 0, attempts = 0, ejections = 0, force_places = 0, restarts = 0,
       spills = 0, chains_built = 0, chains_undone = 0;
  for (size_t i = 0; i < kernels.size() && i < 6; ++i) {
    const core::ScheduleResult r = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(r.ok) << kernels[i].ddg.name();
    ++runs;
    attempts += r.stats.attempts;
    ejections += r.stats.ejections;
    force_places += r.stats.force_places;
    restarts += r.stats.restarts;
    spills += r.stats.spills_inserted;
    chains_built += r.stats.chains_built;
    chains_undone += r.stats.chains_undone;
  }

  EXPECT_EQ(obs::GetCounter("engine.runs").value(), runs);
  EXPECT_EQ(obs::GetCounter("engine.failed_runs").value(), 0);
  EXPECT_EQ(obs::GetCounter("engine.attempts").value(), attempts);
  EXPECT_EQ(obs::GetCounter("engine.ejections").value(), ejections);
  EXPECT_EQ(obs::GetCounter("engine.force_places").value(), force_places);
  EXPECT_EQ(obs::GetCounter("engine.restarts").value(), restarts);
  EXPECT_EQ(obs::GetCounter("engine.spills_inserted").value(), spills);
  EXPECT_EQ(obs::GetCounter("engine.chains_built").value(), chains_built);
  EXPECT_EQ(obs::GetCounter("engine.chains_undone").value(), chains_undone);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(obs::TraceEnabled());
  {
    const obs::Phase phase({"sched", "should-not-record"});
    EXPECT_FALSE(phase.armed());
  }
  obs::Tracer::Shared().Start();
  obs::Tracer::Shared().Stop();
  // Start() discarded any previous recording; the span above predates it.
  for (const auto& t : obs::Tracer::Shared().Snapshot()) {
    EXPECT_TRUE(t.events.empty());
  }
}

// One pair of clock reads feeds all three outputs of a timed phase: the
// slot gains the elapsed seconds, the histogram one sample, and (only
// while tracing) the trace one span whose duration is that same interval.
TEST(Phase, TimedPhaseFeedsSlotHistogramAndSpan) {
  TracerGuard guard;
  static const obs::PhaseName kName =
      obs::PhaseName::Timed("test_obs", "timed-phase");
  obs::Histogram& hist = obs::GetHistogram("phase.timed-phase.seconds");
  ASSERT_EQ(kName.seconds, &hist);
  for (const bool tracing : {true, false}) {
    SCOPED_TRACE(tracing ? "tracing" : "not tracing");
    obs::Tracer::Shared().Start();  // discards earlier events
    if (!tracing) obs::Tracer::Shared().Stop();
    const long count_before = hist.count();
    const double sum_before = hist.sum_seconds();
    double slot = 0.25;  // a phase adds to its slot
    {
      obs::Phase phase(kName, slot);
      EXPECT_EQ(phase.armed(), tracing);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    obs::Tracer::Shared().Stop();
    const double elapsed = slot - 0.25;
    EXPECT_GE(elapsed, 200e-6);
    EXPECT_EQ(hist.count(), count_before + 1);
    EXPECT_NEAR(hist.sum_seconds() - sum_before, elapsed, 1e-9);

    std::vector<obs::TraceEvent> spans;
    for (const auto& t : obs::Tracer::Shared().Snapshot()) {
      for (const obs::TraceEvent& e : t.events) {
        if (e.ph == 'X') spans.push_back(e);
      }
    }
    ASSERT_EQ(spans.size(), tracing ? 1u : 0u);
    if (tracing) {
      EXPECT_STREQ(spans[0].cat, "test_obs");
      EXPECT_STREQ(spans[0].name, "timed-phase");
      EXPECT_NEAR(spans[0].dur_us, elapsed * 1e6, 1e-3);
    }
  }
}

TEST(Trace, ExportIsWellFormedChromeTraceJson) {
  TracerGuard guard;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  obs::Tracer::SetThreadName("main");
  obs::Tracer::Shared().Start();
  const core::ScheduleResult r = core::MirsHC(kernels[0].ddg, m, {});
  obs::Tracer::Shared().Stop();
  ASSERT_TRUE(r.ok);

  const std::string json = obs::Tracer::Shared().ExportJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 2000);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"loop\""), std::string::npos);
  EXPECT_NE(json.find("\"attempt\""), std::string::npos);
}

// Per-track containment: spans on one thread must nest. Sorting a track's
// 'X' events by (start asc, duration desc) yields parents before their
// children; walking with a stack, every span must lie inside the
// innermost open span that contains its start.
void ExpectSpansNest(const obs::Tracer::ThreadSnapshot& track) {
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& e : track.events) {
    if (e.ph == 'X') spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->dur_us > b->dur_us;
            });
  // Same monotonic clock on one thread, children close first, so true
  // containment is exact up to ts+dur floating-point reconstruction (far
  // below a nanosecond here); the epsilon only absorbs that. The pop
  // condition must treat a span starting at/after the top's end as a
  // sibling, not a child — siblings routinely open within a microsecond
  // of the previous close.
  constexpr double kEps = 0.01;  // us
  std::vector<const obs::TraceEvent*> stack;
  for (const obs::TraceEvent* e : spans) {
    while (!stack.empty() &&
           e->ts_us >= stack.back()->ts_us + stack.back()->dur_us - kEps) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const obs::TraceEvent* top = stack.back();
      EXPECT_GE(e->ts_us + kEps, top->ts_us)
          << track.name << ": " << e->name << " starts before " << top->name;
      EXPECT_LE(e->ts_us + e->dur_us, top->ts_us + top->dur_us + kEps)
          << track.name << ": " << e->name << " outlives " << top->name;
    }
    stack.push_back(e);
  }
}

TEST(Trace, SpansNestAndEveryAttemptIsTraced) {
  TracerGuard guard;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  // Ejection-heavy organization: the escalation walk restarts, so loops
  // carry several attempt spans each.
  const MachineConfig m = OrgMachine("4C32/1-1");

  obs::Tracer::SetThreadName("main");
  obs::Tracer::Shared().Start();
  for (size_t i = 0; i < kernels.size() && i < 6; ++i) {
    const core::ScheduleResult r = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(r.ok) << kernels[i].ddg.name();
  }
  obs::Tracer::Shared().Stop();

  int loop_spans = 0;
  int attempt_spans = 0;
  int restart_markers = 0;
  for (const auto& track : obs::Tracer::Shared().Snapshot()) {
    ExpectSpansNest(track);
    for (const obs::TraceEvent& e : track.events) {
      const std::string_view name = e.name;
      if (e.ph == 'X' && name == "loop") ++loop_spans;
      if (e.ph == 'X' && name == "attempt") {
        ++attempt_spans;
        EXPECT_GT(e.ii, 0) << "attempt span without an II";
        EXPECT_FALSE(e.detail.empty()) << "attempt span without a status";
      }
      if (e.ph == 'i' && name == "restart") ++restart_markers;
    }
  }
  EXPECT_EQ(loop_spans, 6);
  // Every failed attempt is followed by one restart instant and every loop
  // ends with its one successful attempt.
  EXPECT_GT(restart_markers, 0);
  EXPECT_EQ(attempt_spans, restart_markers + loop_spans);
}

// The tentpole gate: tracing is a pure observer. With the tracer running
// or stopped, every schedule and its serialized stats block must stay
// bit-identical.
TEST(Trace, TracingIsAPureObserverOfSchedulesAndStats) {
  TracerGuard guard;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");

  for (size_t i = 0; i < kernels.size() && i < 6; ++i) {
    const std::string what = kernels[i].ddg.name();
    const core::ScheduleResult serial = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(serial.ok) << what;

    obs::Tracer::Shared().Start();
    const core::ScheduleResult traced = core::MirsHC(kernels[i].ddg, m, {});
    obs::Tracer::Shared().Stop();

    EXPECT_EQ(io::DumpResult(traced), io::DumpResult(serial)) << what;
  }
}

// ---------------------------------------------------------------------------
// Per-request timing in the batch service
// ---------------------------------------------------------------------------

TEST(Service, RequestTimingDecomposesColdAndWarmPaths) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  std::vector<service::BatchRequest> reqs;
  for (size_t i = 0; i < kernels.size() && i < 4; ++i) {
    service::BatchRequest req;
    req.loop = std::make_shared<workload::Loop>(kernels[i]);
    req.id = kernels[i].ddg.name();
    req.machine = m;
    reqs.push_back(std::move(req));
  }

  service::ServiceConfig opt;
  opt.cache_mem_entries = 64;  // a memory tier over the disk tier
  std::error_code ec;
  opt.cache_dir = (fs::temp_directory_path() /
                   ("hcrf-test-obs-" + std::to_string(::getpid())))
                      .string();
  fs::remove_all(opt.cache_dir, ec);

  // The process-wide phase histograms, read as deltas over the cold batch.
  const obs::Histogram& request_hist =
      obs::GetHistogram("phase.request.seconds");
  const obs::Histogram& probe_hist =
      obs::GetHistogram("phase.cache-probe.seconds");
  const obs::Histogram& schedule_hist =
      obs::GetHistogram("phase.schedule.seconds");
  const long requests_before = request_hist.count();
  const long probes_before = probe_hist.count();
  const long schedules_before = schedule_hist.count();
  const service::BatchReport cold = service::RunBatch(reqs, opt);
  const long n = static_cast<long>(reqs.size());
  EXPECT_EQ(request_hist.count() - requests_before, n);
  EXPECT_EQ(probe_hist.count() - probes_before, n);
  EXPECT_EQ(schedule_hist.count() - schedules_before, cold.scheduled);
  const service::BatchReport warm = service::RunBatch(reqs, opt);
  fs::remove_all(opt.cache_dir, ec);

  ASSERT_EQ(cold.items.size(), reqs.size());
  EXPECT_EQ(cold.scheduled, n);
  double queue_sum = 0, probe_sum = 0, mii_sum = 0, sched_sum = 0,
         put_sum = 0;
  for (const service::BatchItem& item : cold.items) {
    ASSERT_TRUE(item.ok) << item.id;
    EXPECT_FALSE(item.cache_hit) << item.id;
    // A fresh run visits every phase; the MII may be sweep-cache-served
    // but its probe is still timed.
    EXPECT_GT(item.timing.schedule_seconds, 0.0) << item.id;
    EXPECT_GT(item.timing.cache_put_seconds, 0.0) << item.id;
    EXPECT_GE(item.timing.queue_seconds, 0.0) << item.id;
    // The request's phases nest inside its own, so they cannot sum to
    // more than it.
    EXPECT_LE(item.timing.cache_probe_seconds + item.timing.mii_seconds +
                  item.timing.schedule_seconds + item.timing.cache_put_seconds,
              item.seconds)
        << item.id;
    queue_sum += item.timing.queue_seconds;
    probe_sum += item.timing.cache_probe_seconds;
    mii_sum += item.timing.mii_seconds;
    sched_sum += item.timing.schedule_seconds;
    put_sum += item.timing.cache_put_seconds;
  }
  EXPECT_DOUBLE_EQ(cold.timing.queue_seconds, queue_sum);
  EXPECT_DOUBLE_EQ(cold.timing.cache_probe_seconds, probe_sum);
  EXPECT_DOUBLE_EQ(cold.timing.mii_seconds, mii_sum);
  EXPECT_DOUBLE_EQ(cold.timing.schedule_seconds, sched_sum);
  EXPECT_DOUBLE_EQ(cold.timing.cache_put_seconds, put_sum);

  for (const service::BatchItem& item : warm.items) {
    ASSERT_TRUE(item.ok) << item.id;
    EXPECT_TRUE(item.cache_hit) << item.id;
    // A cache hit never schedules: those phases must read exactly zero.
    EXPECT_GT(item.timing.cache_probe_seconds, 0.0) << item.id;
    EXPECT_EQ(item.timing.mii_seconds, 0.0) << item.id;
    EXPECT_EQ(item.timing.schedule_seconds, 0.0) << item.id;
    EXPECT_EQ(item.timing.cache_put_seconds, 0.0) << item.id;
  }
}

}  // namespace
}  // namespace hcrf
