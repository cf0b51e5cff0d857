// The layer walk of a traced run: each library layer's public calls,
// timed inside benchmark-side spans over a seeded sample of the workload's
// own requests, plus the counters the library already exposes (obs
// registry, MII sweep cache, tier stats, ScheduleResult telemetry).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "ddg/mii.h"
#include "experiment/run.h"
#include "io/hcl.h"
#include "memsim/replay.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/runner.h"
#include "sched/ordering.h"
#include "service/cache_tier.h"
#include "service/client.h"
#include "service/sched_cache.h"
#include "service/server.h"
#include "service/session.h"
#include "spans.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hcrf::core::ScheduleResult;
using hcrf::service::BatchRequest;

constexpr std::size_t kEngineTraced = 200;

const char* const kCounters[] = {
    "engine.attempts",      "engine.ejections",   "engine.restarts",
    "engine.spills_inserted", "engine.chains_built", "engine.warm.used",
    "engine.warm.fallback", "mem_cache.hits",     "mem_cache.misses",
    "mem_cache.near_hits",  "mem_cache.near_misses"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double P50(const std::map<std::string, SpanStats>& agg, const std::string& key) {
  const auto it = agg.find(key);
  if (it == agg.end()) return 0.0;
  std::vector<double> d = it->second.durations_us;
  std::sort(d.begin(), d.end());
  return NearestRank(d, 50);
}

/// A daemon on its own serving thread, stopped and joined on every exit
/// path.
class OwnServer {
 public:
  explicit OwnServer(const hcrf::service::ServerOptions& opt) : server_(opt) {
    server_.Start();
    thread_ = std::thread([this] { server_.Serve(); });
  }
  ~OwnServer() {
    server_.RequestStop();
    thread_.join();
  }
  OwnServer(const OwnServer&) = delete;
  OwnServer& operator=(const OwnServer&) = delete;
  hcrf::service::Server& server() { return server_; }

 private:
  hcrf::service::Server server_;
  std::thread thread_;
};

}  // namespace

LayerSnapshot LayerSnapshot::Take() {
  LayerSnapshot s;
  for (const char* name : kCounters) {
    s.counters[name] = hcrf::obs::GetCounter(name).value();
  }
  const hcrf::perf::MiiCacheStats mii = hcrf::perf::GetMiiCacheStats();
  s.mii_hits = mii.hits;
  s.mii_misses = mii.misses;
  s.mii_evictions = mii.evictions;
  return s;
}

void RunLayerWalk(const LayerContext& ctx, RunResult* out) {
  const std::string dir = ctx.scratch + "/walk";
  fs::create_directories(dir);
  Stream rng(ctx.seed, 31);

  // The walk's own tiers and, when the workload has none, its own daemon.
  hcrf::service::MemoryTier::Config mc;
  mc.max_entries = 1 << 14;
  hcrf::service::MemoryTier own_memory(mc);
  hcrf::service::DiskTier disk(dir + "/disk");
  std::unique_ptr<OwnServer> own_server;
  hcrf::service::Server* server = ctx.server;
  std::string socket = ctx.socket;
  if (server == nullptr) {
    hcrf::service::ServerOptions opt;
    opt.socket_path = socket = dir + "/s";
    opt.service.cache_mem_entries = 1 << 14;
    own_server = std::make_unique<OwnServer>(opt);
    server = &own_server->server();
  }
  hcrf::service::MemoryTier* probe_tier =
      ctx.server != nullptr ? ctx.server->session().memory_tier() : &own_memory;

  hcrf::obs::Tracer::Shared().Start();
  spans::SetEnabled(true);

  // Per-request calls into every layer, one request span each.
  long placements = 0;
  long first_ii = 0;
  long scheduled = 0;
  double schedule_s = 0;
  double result_bytes = 0;
  std::vector<double> schedule_us;
  std::vector<hcrf::service::CacheKey> keys;
  for (std::size_t i = 0; i < ctx.sample.size(); ++i) {
    // The engine's own spans run to ~700 per request; the first
    // kEngineTraced requests are enough for the phase self times and keep
    // the Chrome trace to tens of MB.
    if (i == kEngineTraced) hcrf::obs::Tracer::Shared().Stop();
    const BatchRequest& req = ctx.sample[i];
    const hcrf::DDG& g = req.loop->ddg;
    spans::SetRequest(static_cast<long>(i));
    Span request("walk", "request");
    std::string loop_text;
    {
      Span s("io", "dump_loop");
      loop_text = hcrf::io::DumpLoop(*req.loop);
    }
    {
      Span s("io", "parse_loop");
      (void)hcrf::io::ParseLoop(loop_text);
    }
    hcrf::service::CacheKey key;
    {
      Span s("service", "key_hash");
      key = hcrf::service::MakeCacheKey(g, req.machine, req.options,
                                        req.overrides);
    }
    keys.push_back(key);
    {
      Span s("ddg", "mii");
      (void)hcrf::ComputeMII(g, req.machine);
    }
    {
      Span s("sched", "order");
      (void)hcrf::sched::HrmsOrder(g, req.machine.lat);
    }
    ScheduleResult r;
    {
      const double t0 = NowSeconds();
      Span s("core", "schedule");
      r = hcrf::core::MirsHC(g, req.machine, req.options, req.overrides);
      const double dt = SecondsSince(t0);
      schedule_s += dt;
      schedule_us.push_back(dt * 1e6);
    }
    ++scheduled;
    placements += r.stats.attempts;
    if (r.ok && r.stats.restarts == 0) ++first_ii;
    if (r.ok) {
      Span s("sched", "validate");
      const std::string err = ValidateResult(r, req.machine);
      if (!err.empty()) out->Fail("walk: " + req.id + " invalid: " + err);
    }
    std::string text;
    {
      Span s("io", "dump_result");
      text = hcrf::io::DumpResult(r);
    }
    result_bytes += static_cast<double>(text.size());
    {
      Span s("io", "parse_result");
      (void)hcrf::io::ParseResult(text);
    }
    if (r.ok) {
      Span s("memsim", "replay");
      (void)hcrf::memsim::ReplayLoop(*req.loop, r, req.machine);
    }
    {
      Span s("service", "disk_put");
      disk.Put(key, r);
    }
    own_memory.Put(key, r);
  }
  hcrf::obs::Tracer::Shared().Stop();
  // Memory-tier probes: the workload's own hot tier when it has one.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    spans::SetRequest(static_cast<long>(i));
    Span s("service", "mem_probe");
    (void)probe_tier->Get(keys[i]);
  }

  // Warm-start deltas through a cached session (near-key lookup + repair).
  long seeded = 0;
  long repaired = 0;
  {
    hcrf::service::ServiceConfig sc;
    sc.cache_mem_entries = 1 << 14;
    sc.threads = 1;
    hcrf::service::SchedulerService own_session(sc);
    hcrf::service::SchedulerService& session =
        ctx.server != nullptr ? ctx.server->session() : own_session;
    for (std::size_t i = 0; i < ctx.delta_sample.size(); ++i) {
      const BatchRequest delta =
          Hardened(ctx.delta_sample[i], DrawHardening(ctx.delta_sample[i], rng));
      if (ctx.server == nullptr) session.RunBatch({ctx.delta_sample[i]});
      spans::SetRequest(static_cast<long>(i));
      Span s("core", "warm_delta");
      const hcrf::service::BatchReport rep = session.RunBatch({delta});
      seeded += rep.items[0].result.warm.seeded;
      repaired += rep.items[0].result.warm.repaired;
    }
  }

  // Daemon round trip split: direct session call, full Submit, Ping. The
  // wire carries no latency overrides, so those requests are left out.
  {
    hcrf::service::Client client(socket);
    std::vector<BatchRequest> wire;
    for (const BatchRequest& r : ctx.sample) {
      if (r.overrides.producer_latency.empty() && wire.size() < 300) {
        wire.push_back(r);
      }
    }
    for (const BatchRequest& r : wire) client.Submit({r});  // now resident
    for (std::size_t i = 0; i < wire.size(); ++i) {
      spans::SetRequest(static_cast<long>(i));
      {
        Span s("service", "session_batch");
        (void)server->session().RunBatch({wire[i]});
      }
      {
        Span s("service", "submit_one");
        (void)client.Submit({wire[i]});
      }
      {
        Span s("service", "connect");
        (void)client.Ping();
      }
    }
  }

  // Queue wait and parallel efficiency of one direct batch of the sample.
  std::vector<double> queue_us;
  double efficiency = ctx.parallel_efficiency;
  {
    Span s("perf", "batch");
    hcrf::service::ServiceConfig sc;
    hcrf::service::SchedulerService session(sc);
    const hcrf::service::BatchReport rep = session.RunBatch(ctx.sample);
    double busy = 0;
    for (const hcrf::service::BatchItem& item : rep.items) {
      queue_us.push_back(item.timing.queue_seconds * 1e6);
      busy += item.seconds;
    }
    if (efficiency < 0) {
      const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
      efficiency = Ratio(busy, rep.seconds * workers);
    }
  }
  double post_batch_s = ctx.post_batch_s;
  if (post_batch_s < 0) {
    Span s("experiment", "run_smoke");
    hcrf::experiment::ReproOptions opt;
    opt.smoke = true;
    const double t0 = NowSeconds();
    const hcrf::experiment::ReproReport rep =
        hcrf::experiment::RunExperiments({}, opt);
    post_batch_s = SecondsSince(t0) - rep.seconds;
    if (rep.ref_failures != 0) out->Fail("smoke repro: reference failures");
  }
  spans::SetEnabled(false);
  own_server.reset();

  const LayerSnapshot after = LayerSnapshot::Take();
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counters.at(name) -
                               ctx.before.counters.at(name));
  };
  const std::map<std::string, SpanStats> agg = spans::Aggregate();

  // Chrome trace + per-layer self-time table.
  const std::string trace_dir = ".bench_build/traces";
  fs::create_directories(trace_dir);
  const std::string trace_path = trace_dir + "/" + ctx.workload + "-" +
                                 std::to_string(ctx.seed) + ".json";
  if (!spans::WriteChromeTrace(trace_path)) {
    out->Fail("cannot write " + trace_path);
  }
  std::printf("trace: %s\nself time by span (us): %-34s %8s %12s %12s\n",
              trace_path.c_str(), "span", "count", "total", "self");
  std::map<std::string, double> layer_self;
  for (const auto& [key, st] : agg) {
    std::printf("  %-52s %8ld %12.1f %12.1f\n", key.c_str(), st.count,
                st.total_us, st.self_us);
    layer_self[key.substr(0, key.find('.'))] += st.self_us;
  }
  std::printf("self time by layer (us):\n");
  for (const auto& [layer, us] : layer_self) {
    std::printf("  %-20s %14.1f\n", layer.c_str(), us);
  }

  std::vector<double> sorted_sched = schedule_us;
  std::sort(sorted_sched.begin(), sorted_sched.end());
  std::sort(queue_us.begin(), queue_us.end());
  const double mii_hits = static_cast<double>(after.mii_hits - ctx.before.mii_hits);
  const double mii_lookups =
      mii_hits + static_cast<double>(after.mii_misses - ctx.before.mii_misses);
  const double mem_hits = delta("mem_cache.hits");
  const double mem_probes = mem_hits + delta("mem_cache.misses");
  const double near_hits = delta("mem_cache.near_hits");
  const double near_lookups = near_hits + delta("mem_cache.near_misses");
  const double warm_used = delta("engine.warm.used");
  const double warm_tries = warm_used + delta("engine.warm.fallback");
  const auto self_of = [&](const std::string& key) {
    const auto it = agg.find(key);
    return it == agg.end() ? 0.0 : it->second.self_us;
  };
  const double submit_one = P50(agg, "service.submit_one");
  const double session_batch = P50(agg, "service.session_batch");

  std::printf("per-layer metrics (%zu sampled requests):\n", ctx.sample.size());
  const auto set = [&](const std::string& name, double v, const std::string& unit,
                       const std::string& note = "") {
    PrintMetric(name, v, unit, note);
    out->Set(name, v, unit);
  };
  set("workload.synth_gen_s", Median(ctx.times.synth_gen_s), "s");
  set("hwmodel.characterize_us", Median(ctx.times.characterize_us), "us");
  set("ddg.mii_us", P50(agg, "ddg.mii"), "us");
  set("perf.mii_cache.hit_ratio", Ratio(mii_hits, mii_lookups), "ratio",
      std::to_string(static_cast<long>(mii_hits)) + " hits / " +
          std::to_string(static_cast<long>(mii_lookups)) + " lookups");
  set("perf.mii_cache.lookups", mii_lookups, "count");
  set("perf.mii_cache.evictions",
      static_cast<double>(after.mii_evictions - ctx.before.mii_evictions),
      "count");
  set("sched.order_us", P50(agg, "sched.order"), "us");
  set("sched.validate_us", P50(agg, "sched.validate"), "us");
  set("core.schedule_p50_us", NearestRank(sorted_sched, 50), "us",
      "n=" + std::to_string(sorted_sched.size()));
  set("core.schedule_p99_us", NearestRank(sorted_sched, 99), "us",
      Reportable(sorted_sched.size(), 99) ? "" : "fewer than 1000 samples");
  set("core.attempts", delta("engine.attempts"), "count");
  set("core.ejections", delta("engine.ejections"), "count");
  set("core.restarts", delta("engine.restarts"), "count");
  set("core.spills_inserted", delta("engine.spills_inserted"), "count");
  set("core.chains_built", delta("engine.chains_built"), "count");
  set("core.placements_per_s", Ratio(static_cast<double>(placements), schedule_s),
      "1/s");
  set("core.first_ii_ratio", Ratio(static_cast<double>(first_ii),
                                   static_cast<double>(scheduled)),
      "ratio", std::to_string(first_ii) + " / " + std::to_string(scheduled));
  const auto total_of = [&](const std::string& key) {
    const auto it = agg.find(key);
    return it == agg.end() ? 0.0 : it->second.total_us;
  };
  set("core.placement_self_share",
      Ratio(self_of("engine.phase.placement"), total_of("engine.sched.loop")),
      "ratio", "engine placement self time / engine loop time");
  set("core.warm.used_ratio", Ratio(warm_used, warm_tries), "ratio",
      std::to_string(static_cast<long>(warm_used)) + " / " +
          std::to_string(static_cast<long>(warm_tries)));
  set("core.warm.repaired_per_seeded",
      Ratio(static_cast<double>(repaired), static_cast<double>(seeded)), "ratio",
      std::to_string(repaired) + " / " + std::to_string(seeded));
  set("memsim.replay_us", P50(agg, "memsim.replay"), "us");
  set("experiment.post_batch_s", post_batch_s, "s",
      ctx.post_batch_s < 0 ? "smoke-slice RunExperiments" : "");
  set("perf.queue_wait_p99_us", NearestRank(queue_us, 99), "us",
      "n=" + std::to_string(queue_us.size()));
  set("perf.parallel_efficiency", efficiency, "ratio");
  set("io.dump_result_us", P50(agg, "io.dump_result"), "us");
  set("io.parse_result_us", P50(agg, "io.parse_result"), "us");
  set("io.dump_loop_us", P50(agg, "io.dump_loop"), "us");
  set("io.parse_loop_us", P50(agg, "io.parse_loop"), "us");
  set("io.result_bytes",
      Ratio(result_bytes, static_cast<double>(ctx.sample.size())), "bytes");
  set("service.key_hash_us", P50(agg, "service.key_hash"), "us");
  set("service.mem_probe_us", P50(agg, "service.mem_probe"), "us");
  set("service.mem_hit_ratio", Ratio(mem_hits, mem_probes), "ratio",
      std::to_string(static_cast<long>(mem_hits)) + " / " +
          std::to_string(static_cast<long>(mem_probes)));
  set("service.near_hit_ratio", Ratio(near_hits, near_lookups), "ratio",
      std::to_string(static_cast<long>(near_hits)) + " / " +
          std::to_string(static_cast<long>(near_lookups)));
  set("service.disk_put_us", P50(agg, "service.disk_put"), "us");
  set("service.session_batch_us", session_batch, "us");
  set("service.wire_overhead_us", submit_one - session_batch, "us");
  set("service.connect_us", P50(agg, "service.connect"), "us");
  set("obs.trace_overhead", ctx.trace_overhead, "ratio",
      "traced / untraced headline latency");
  spans::Clear();
  fs::remove_all(dir);
}

}  // namespace perfbench
