// repro-cold: experiment::RunExperiments over the whole registry with no
// cache tiers — the paper reproduction as users run it.
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "experiment/run.h"
#include "memsim/prefetch.h"
#include "perf/runner.h"
#include "service/cache_tier.h"
#include "service/session.h"
#include "spans.h"
#include "workload/perfect_synth.h"
#include "workload/suite_cache.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hcrf::service::BatchRequest;

constexpr int kSetupRepeats = 9;
constexpr std::size_t kVerifyStride = 4;

/// Reference values of the reproduction on the current engine. They repeat
/// exactly on every run: the reports are deterministic, and the North-star
/// contract keeps them byte-identical across changes.
constexpr int kExpectedRequests = 55568;
constexpr int kExpectedRefs = 325;
constexpr long kExpectedUnscheduled = 339;
/// FNV-1a of ReproCsv(): the whole deterministic report, byte for byte.
constexpr std::uint64_t kExpectedCsvDigest = 0x74208d384f6e2ebdull;

/// The deduplicated request list RunExperiments dispatches, rebuilt from
/// the public registry for the verification pass (same expansion: every
/// machine x engine x loop cell, prefetch overrides, dedup by cache key).
std::vector<BatchRequest> ExpandRegistry() {
  std::vector<BatchRequest> requests;
  std::unordered_set<std::string> seen;
  for (const hcrf::experiment::Experiment& def : hcrf::experiment::Registry()) {
    if (def.workload.suite.empty()) continue;
    const hcrf::workload::Suite* base =
        hcrf::workload::SharedSuiteByName(def.workload.suite);
    std::vector<std::shared_ptr<const hcrf::workload::Loop>> loops;
    const std::size_t n = def.workload.slice;
    if (n == 0 || n >= base->size()) {
      for (std::size_t i = 0; i < base->size(); ++i) {
        loops.emplace_back(std::shared_ptr<const void>(), &(*base)[i]);
      }
    } else {
      auto owned = std::make_shared<const hcrf::workload::Suite>(
          hcrf::workload::SuiteSlice(*base, n));
      for (std::size_t i = 0; i < owned->size(); ++i) {
        loops.emplace_back(owned, &(*owned)[i]);
      }
    }
    for (const auto& mv : def.machines) {
      for (const auto& ev : def.engines) {
        for (const auto& loop : loops) {
          BatchRequest req;
          req.id = def.name + "/" + mv.label + "/" + ev.label + "/" +
                   loop->ddg.name();
          req.loop = loop;
          req.machine = mv.machine;
          req.options = ev.options;
          if (ev.prefetch != hcrf::memsim::PrefetchMode::kNone) {
            req.overrides = hcrf::memsim::ClassifyBindingPrefetch(
                loop->ddg, mv.machine, loop->trip, ev.prefetch);
          }
          const std::string key =
              hcrf::service::MakeCacheKey(loop->ddg, req.machine, req.options,
                                          req.overrides)
                  .Hex();
          if (seen.insert(key).second) requests.push_back(std::move(req));
        }
      }
    }
  }
  return requests;
}

/// One set-up: suite generation, characterization of the paper
/// organizations and a transient session (the process-static registry and
/// shared suites are built by the first).
double SetUpOnce(int threads, LayerTimes* times) {
  const double t0 = NowSeconds();
  const double s0 = NowSeconds();
  (void)hcrf::workload::PerfectSynthetic();
  times->synth_gen_s.push_back(SecondsSince(s0));
  for (const std::string& org : PaperOrganizations()) {
    const double c0 = NowSeconds();
    (void)CharacterizedMachine(org);
    times->characterize_us.push_back(SecondsSince(c0) * 1e6);
  }
  (void)hcrf::experiment::Registry();
  (void)hcrf::workload::SharedSuiteByName("synth");
  (void)hcrf::workload::SharedSuiteByName("kernels");
  hcrf::service::ServiceConfig config;
  config.threads = threads;
  hcrf::service::SchedulerService session(config);
  return SecondsSince(t0);
}

struct ReproPass {
  std::vector<double> wall_s;
  hcrf::experiment::ReproReport last;
  double last_wall = 0;
};

/// Repeats the full reproduction until `seconds` pass (at least once), each
/// time from a cold MII sweep cache.
ReproPass RunRepeats(double seconds, int threads, RunResult* out) {
  ReproPass pass;
  hcrf::experiment::ReproOptions opt;
  opt.threads = threads;
  const double end = NowSeconds() + seconds;
  do {
    hcrf::perf::SetMiiCacheCapacity(hcrf::perf::SetMiiCacheCapacity(1));
    const double t0 = NowSeconds();
    {
      Span s("experiment", "run_experiments");
      pass.last = hcrf::experiment::RunExperiments({}, opt);
    }
    pass.last_wall = SecondsSince(t0);
    pass.wall_s.push_back(pass.last_wall);
    out->tally.attempted += pass.last.requests;

    const hcrf::experiment::ReproReport& rep = pass.last;
    long unscheduled = 0;
    for (const auto& e : rep.experiments) unscheduled += e.cells_failed;
    out->tally.unscheduled = unscheduled;
    Digest csv;
    csv.Add(hcrf::experiment::ReproCsv(rep));
    if (rep.requests != kExpectedRequests) {
      out->Fail("requests " + std::to_string(rep.requests) + " != " +
                std::to_string(kExpectedRequests));
    }
    if (rep.ref_failures != 0 || rep.RefPasses() != kExpectedRefs) {
      out->Fail("reference values: " + std::to_string(rep.RefPasses()) +
                " pass, " + std::to_string(rep.ref_failures) + " fail");
    }
    if (unscheduled != kExpectedUnscheduled) {
      out->Fail("unscheduled cells " + std::to_string(unscheduled) + " != " +
                std::to_string(kExpectedUnscheduled));
    }
    if (csv.value() != kExpectedCsvDigest) {
      out->Fail("ReproCsv digest " + Hex(csv.value()) + " != " +
                Hex(kExpectedCsvDigest));
    }
  } while (NowSeconds() < end);
  return pass;
}

}  // namespace

RunResult RunReproCold(const Args& args) {
  RunResult out;
  // Every hardware thread: the serial post-batch aggregation dominates the
  // wall, and ten runs over ten seeds held within 3% at this count.
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  LayerTimes times;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) setup_s.push_back(SetUpOnce(threads, &times));

  // The request stream is the paper's fixed workload: its digest covers
  // every dispatched request and does not depend on the seed.
  const std::vector<BatchRequest> requests = ExpandRegistry();
  Digest stream;
  for (const BatchRequest& r : requests) stream.Add(r.id);
  PrintHostHeader(args, Hex(stream.value()));

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  ReproPass pass = RunRepeats(window, threads, &out);
  const double untraced_wall = Median(pass.wall_s);
  LayerSnapshot before;
  ReproPass traced;
  if (args.trace) {
    before = LayerSnapshot::Take();
    spans::SetEnabled(true);
    traced = RunRepeats(window, threads, &out);
    spans::SetEnabled(false);
  }

  const double rss = PeakRssMb();

  // Verification pass (untimed): a fixed quarter of the deduplicated
  // requests (every kVerifyStride-th) through a cache-less session; every
  // schedule validated, II/MII summed. RunExperiments returns metrics, not
  // schedules, so the timed runs are tied to these by the report digest.
  std::vector<BatchRequest> slice;
  for (std::size_t i = 0; i < requests.size(); i += kVerifyStride) {
    slice.push_back(requests[i]);
  }
  std::vector<hcrf::core::ScheduleResult> results;
  {
    hcrf::service::ServiceConfig config;
    config.threads = threads;
    hcrf::service::SchedulerService session(config);
    hcrf::service::BatchReport rep = session.RunBatch(slice);
    for (std::size_t i = 0; i < rep.items.size(); ++i) {
      const std::string err =
          ValidateResult(rep.items[i].result, slice[i].machine);
      if (!err.empty()) out.Fail(slice[i].id + " invalid: " + err);
      results.push_back(std::move(rep.items[i].result));
    }
  }
  const double ii_over_mii = IiOverMii(results);
  const double wall = untraced_wall;
  const double loops_per_s = static_cast<double>(pass.last.requests) / wall;

  std::printf("repro-cold: RunExperiments over %zu experiments, %d threads, "
              "no cache tiers, %zu repeats\n",
              hcrf::experiment::Registry().size(), threads, pass.wall_s.size());
  PrintMetric("setup_s", Median(setup_s), "s",
              "median of " + std::to_string(kSetupRepeats) + " set-ups");
  PrintMetric("repro_wall_s", wall, "s",
              "median of " + std::to_string(pass.wall_s.size()) + " runs");
  PrintMetric("loops_per_s", loops_per_s, "1/s",
              std::to_string(pass.last.requests) + " requests per run");
  PrintMetric("ii_over_mii", ii_over_mii, "ratio",
              std::to_string(results.size()) + " requests");
  PrintMetric("failed_share", out.tally.FailedShare(), "ratio",
              std::to_string(out.tally.failed()) + " / " +
                  std::to_string(out.tally.attempted) + "; unscheduled cells " +
                  std::to_string(out.tally.unscheduled));
  PrintMetric("peak_rss_mb", rss, "MiB");

  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("latency_p50_ms", wall * 1e3, "ms");
    out.Set("latency_p99_ms", *std::max_element(pass.wall_s.begin(),
                                                pass.wall_s.end()) * 1e3, "ms");
    out.Set("throughput_per_s", loops_per_s, "1/s");
    out.Set("ii_over_mii", ii_over_mii, "ratio");
    out.Set("peak_rss_mb", rss, "MiB");
    return out;
  }

  LayerContext ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  ctx.scratch = ScratchDir();
  Stream rng(args.seed, 7);
  for (int k = 0; k < 1000; ++k) {
    ctx.sample.push_back(requests[static_cast<std::size_t>(
        rng.Uniform(0, static_cast<long>(requests.size()) - 1))]);
  }
  for (const auto& loop : LoadCorpus()) {
    for (const std::string& org : PaperOrganizations()) {
      if (!DeltaEligible(loop->ddg, org)) continue;
      BatchRequest r;
      r.id = loop->ddg.name() + "/" + org;
      r.loop = loop;
      r.machine = CharacterizedMachine(org);
      ctx.delta_sample.push_back(std::move(r));
    }
  }
  ctx.times = times;
  ctx.before = before;
  ctx.trace_overhead = Median(traced.wall_s) / untraced_wall;
  ctx.post_batch_s = traced.last_wall - traced.last.seconds;
  ctx.parallel_efficiency =
      (traced.last.timing.Total() - traced.last.timing.queue_seconds) /
      (traced.last.seconds * threads);
  RunLayerWalk(ctx, &out);
  fs::remove_all(ctx.scratch);
  return out;
}

}  // namespace perfbench
