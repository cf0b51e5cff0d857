// hcrf_sched: the scheduling service's command-line driver.
//
//   hcrf_sched schedule <loop.hcl> [options]   schedule one graph file
//   hcrf_sched run <manifest> [options]        run a batch manifest
//   hcrf_sched sweep <spec.hcl> [options]      run a design-space sweep
//   hcrf_sched dump <file>                     parse + canonical re-dump
//   hcrf_sched validate <file.hcl>             strict load + graph check
//   hcrf_sched export [options]                write a suite as .hcl corpus
//   hcrf_sched stats [dir]                     metrics registry (+ cache census)
//   hcrf_sched smoke <manifest>                cold+warm cache self-check
//   hcrf_sched repro [options]                 paper-reproduction experiments
//   hcrf_sched serve --socket=PATH [options]   resident scheduling daemon
//   hcrf_sched submit [manifest] [options]     client for a running daemon
//
// The scheduling commands (schedule / run / repro) additionally accept
// `--trace=FILE` (write a Chrome trace_event JSON of the run; open in
// Perfetto or chrome://tracing) and `--stats[=json]` (dump the metrics
// registry after the run). Tracing is a pure observer: schedules and
// serialized stats are bit-identical with or without it.
//
// Run `hcrf_sched help` for per-command options. Exit status: 0 on
// success, 1 on bad usage / failed requests / failed self-check.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/run.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "machine/machine_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/runner.h"
#include "service/batch.h"
#include "service/client.h"
#include "service/sched_cache.h"
#include "service/server.h"
#include "service/session.h"
#include "service/sweep.h"
#include "workload/suite_cache.h"

namespace {

namespace fs = std::filesystem;
using namespace hcrf;

int Usage() {
  std::fprintf(stderr, R"(usage: hcrf_sched <command> [args]

commands:
  schedule <loop.hcl>    schedule one dependence-graph file
      --rf=NAME            RF organization (paper notation; default S128)
      --machine=FILE       full `hcl 1 machine` document instead of --rf
      --no-characterize    skip the hardware model (keep baseline clock)
      --budget=X --max-ii=N --policy=NAME --non-iterative
      --cache=DIR          persistent schedule cache
      --cache-mem=N        in-memory hot tier bounded to N entries
                           (stacks in front of --cache with write-behind)
      --cache-mem-bytes=B  hot-tier byte bound (default 64 MiB)
      --out=FILE           write the result document (default stdout)
      --trace=FILE         write a Chrome trace_event JSON of the run
      --stats[=json]       dump the metrics registry after the run
  run <manifest>         run every request of a batch manifest
      --cache=DIR --cache-mem=N --cache-mem-bytes=B
      --threads=N --out-dir=DIR --quiet
      --trace=FILE --stats[=json]
  sweep <spec.hcl>       run a design-space sweep over RF organizations
      --cache=DIR          persistent schedule cache
      --cache-mem=N --cache-mem-bytes=B  in-memory hot tier
      --threads=N
      --out-dir=DIR        write <name>.csv and <name>.md (default .)
      --quiet              don't print the markdown report
      --smoke              run cold then warm against a fresh cache; the
                           warm run must be fully cache-served with
                           bit-identical reports
  dump <file>            parse any .hcl document, re-dump canonically
  validate <file.hcl>    strict parse + structural check, print a summary
  export                 write a workload suite as a .hcl corpus
      --suite=kernels|synth  (default kernels)
      --n=N                  cap the number of exported loops
      --rf=NAME              RF the generated manifest schedules on
                             (default 4C16S64/2-1, the paper's proposal)
      --out=DIR              corpus directory (default corpus)
  stats [dir]            dump the process metrics registry (counters,
                         gauges, latency histograms); with a directory,
                         folds a disk census of that schedule cache in as
                         sched_cache.disk_entries / sched_cache.disk_bytes
      --json               JSON instead of the aligned table
  smoke <manifest>       run twice (cold, warm cache); verify the warm run
                         hits the cache and its output is bit-identical
  repro                  run the registered paper-reproduction experiments
                         (figures 1/4/6, tables 1-6, the ablations) through
                         the cache-backed batch service and render the
                         delta-vs-paper report with pass/fail verdicts
      --list               list the registered experiments and exit
      --only=A,B           run a subset (names from --list)
      --out=DIR            write repro.csv and repro.md (default .)
      --cache=DIR          persistent schedule cache
      --cache-mem=N --cache-mem-bytes=B  in-memory hot tier
      --threads=N --quiet
      --smoke              bounded slice of each experiment, cold run then
                           warm run against a fresh cache; the warm run
                           must be fully cache-served with bit-identical
                           reports
      --trace=FILE --stats[=json]
  serve                  resident scheduling daemon on a Unix socket: one
                         long-lived cache stack + session shared by every
                         submission (line-framed protocol, see `submit`).
                         SIGTERM/SIGINT drain gracefully: in-flight
                         requests finish and cache writes settle first.
      --socket=PATH        listening Unix-socket path (required)
      --cache=DIR          persistent schedule cache (disk tier)
      --cache-mem=N        in-memory hot tier bounded to N entries
      --cache-mem-bytes=B  hot-tier byte bound (default 64 MiB)
      --threads=N
      --max-inflight=N     connections in service at once before the
                           server answers `busy` (default 4)
      --timeout-ms=N       per-connection socket timeout (default 30000)
  submit                 client for a running daemon: resolves a batch
                         manifest locally and submits it over the socket
      <manifest>           manifest to resolve and submit
      --socket=PATH        daemon socket path (required)
      --delta=N:LAT[,...]  what-if submission: perturb producer latencies
                           (node N of each loop -> LAT cycles) and submit
                           as a `delta` request; the daemon warm-starts
                           from its near-key cache seeds and repairs the
                           perturbation instead of rescheduling cold.
                           Node ids are per-loop; an entry beyond a
                           loop's node count is ignored for that loop
      --ping               health check instead of a manifest
      --stats              daemon metrics registry (JSON) instead
      --cache-stats        daemon cache counters + disk census instead
      --out-dir=DIR --quiet --timeout-ms=N
                         exit status 2 when the daemon answers `busy`
)");
  return 1;
}

/// `--key=value` / `--flag` parsing over argv[from..).
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  static Args Parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          a.flags.emplace_back(arg.substr(2), "");
        } else {
          a.flags.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
        }
      } else {
        a.positional.push_back(arg);
      }
    }
    return a;
  }

  const std::string* Flag(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return &v;
    }
    return nullptr;
  }
};

/// Validated numeric flag parsing: the whole value must parse (bare
/// std::stoi/std::stod silently truncate trailing garbage like
/// `--max-ii=4abc` and throw context-free exceptions on `--threads=x`);
/// failures name the offending flag.
long ParseLongFlag(const char* flag, const std::string& value) {
  const std::optional<long> v = io::TryParseLong(value);
  if (!v) {
    throw std::runtime_error(std::string("--") + flag +
                             ": expected an integer, got '" + value + "'");
  }
  return *v;
}

int ParseIntFlag(const char* flag, const std::string& value) {
  const long v = ParseLongFlag(flag, value);
  if (v < INT32_MIN || v > INT32_MAX) {
    throw std::runtime_error(std::string("--") + flag + ": value '" + value +
                             "' is out of range");
  }
  return static_cast<int>(v);
}

double ParseDoubleFlag(const char* flag, const std::string& value) {
  const std::optional<double> v = io::TryParseDouble(value);
  if (!v) {
    throw std::runtime_error(std::string("--") + flag +
                             ": expected a number, got '" + value + "'");
  }
  return *v;
}

/// Rejects flags outside `known` (typo safety for a service entry point).
bool CheckFlags(const Args& a, std::initializer_list<const char*> known) {
  for (const auto& [k, v] : a.flags) {
    bool ok = false;
    for (const char* name : known) {
      if (k == name) ok = true;
    }
    if (!ok) {
      std::fprintf(stderr, "hcrf_sched: unknown option --%s\n", k.c_str());
      return false;
    }
  }
  return true;
}

/// The session flag group every scheduling command shares: `--cache=DIR`
/// (disk tier), `--cache-mem=N` / `--cache-mem-bytes=B` (memory tier; N =
/// 0 keeps it off, and the byte bound refines an enabled tier, so it
/// requires `--cache-mem`) and `--threads=N` (0 = every pool worker plus
/// the caller). Commands reject the flags they do not take in CheckFlags.
service::ServiceConfig SessionFromFlags(const Args& args) {
  service::ServiceConfig config;
  if (const std::string* c = args.Flag("cache")) config.cache_dir = *c;
  if (const std::string* v = args.Flag("cache-mem")) {
    config.cache_mem_entries = ParseLongFlag("cache-mem", *v);
    if (config.cache_mem_entries < 0) {
      throw std::runtime_error(
          "--cache-mem: expected a non-negative entry count, got '" + *v +
          "'");
    }
  }
  if (const std::string* v = args.Flag("cache-mem-bytes")) {
    config.cache_mem_bytes = ParseLongFlag("cache-mem-bytes", *v);
    if (config.cache_mem_bytes < 0) {
      throw std::runtime_error(
          "--cache-mem-bytes: expected a non-negative byte count, got '" +
          *v + "'");
    }
    if (config.cache_mem_entries <= 0) {
      throw std::runtime_error(
          "--cache-mem-bytes requires --cache-mem=N to enable the tier");
    }
  }
  if (const std::string* v = args.Flag("threads")) {
    config.threads = ParseIntFlag("threads", *v);
    if (config.threads < 0) {
      throw std::runtime_error(
          "--threads: expected a non-negative thread count, got '" + *v +
          "'");
    }
  }
  return config;
}

/// `--stats[=json]`: dump the whole metrics registry after the command.
void MaybeDumpStats(const Args& args) {
  const std::string* v = args.Flag("stats");
  if (v == nullptr) return;
  if (!v->empty() && *v != "json") {
    throw std::runtime_error("--stats: expected --stats or --stats=json");
  }
  const std::string out = *v == "json" ? obs::Registry::Shared().Json()
                                       : obs::Registry::Shared().Table();
  std::fwrite(out.data(), 1, out.size(), stdout);
}

/// `--trace=FILE`: brackets the command body with the flight recorder and
/// writes the Chrome trace_event JSON when it returns. The export happens
/// after the body — i.e. after every ParallelFor / TaskGroup wait — so the
/// tracer's quiescence contract holds (pool workers are parked, no spans
/// in flight). Also applies `--stats` after the body, traced or not.
template <typename Body>
int RunTraced(const Args& args, Body&& body) {
  const std::string* trace = args.Flag("trace");
  if (trace != nullptr && trace->empty()) {
    throw std::runtime_error("--trace: expected --trace=FILE");
  }
  if (trace != nullptr) {
    obs::Tracer::SetThreadName("main");
    obs::Tracer::Shared().Start();
  }
  int rc;
  try {
    rc = body();
  } catch (...) {
    if (trace != nullptr) obs::Tracer::Shared().Stop();
    throw;
  }
  if (trace != nullptr) {
    obs::Tracer::Shared().Stop();
    io::WriteFileAtomic(*trace, obs::Tracer::Shared().ExportJson());
    std::printf("trace: %s\n", trace->c_str());
  }
  MaybeDumpStats(args);
  return rc;
}

MachineConfig MachineFromFlags(const Args& args) {
  if (const std::string* path = args.Flag("machine")) {
    return io::LoadMachineFile(*path);
  }
  const std::string* rf = args.Flag("rf");
  MachineConfig m =
      MachineConfig::WithRF(RFConfig::Parse(rf != nullptr ? *rf : "S128"));
  if (args.Flag("no-characterize") == nullptr) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

core::MirsOptions OptionsFromFlags(const Args& args) {
  core::MirsOptions opt;
  if (const std::string* v = args.Flag("budget")) {
    opt.budget_ratio = ParseDoubleFlag("budget", *v);
  }
  if (const std::string* v = args.Flag("max-ii")) {
    opt.max_ii = ParseIntFlag("max-ii", *v);
  }
  if (args.Flag("non-iterative") != nullptr) opt.iterative = false;
  if (const std::string* v = args.Flag("policy")) {
    const std::optional<core::ClusterPolicy> p = io::ClusterPolicyFromName(*v);
    if (!p) throw std::runtime_error("unknown --policy=" + *v);
    opt.cluster_policy = *p;
  }
  return opt;
}

void PrintItem(const service::BatchItem& item) {
  if (!item.ok) {
    std::printf("%-28s FAILED  %s\n", item.id.c_str(), item.error.c_str());
    return;
  }
  std::printf("%-28s II %3d (MII %3d)  SC %2d  bound %-7s %s  %.3f ms\n",
              item.id.c_str(), item.result.ii, item.result.mii,
              item.result.sc,
              std::string(core::ToString(item.result.bound)).c_str(),
              item.cache_hit ? "cache-hit " : "scheduled ",
              item.seconds * 1e3);
}

int CmdSchedule(const Args& args) {
  if (args.positional.size() != 1 ||
      !CheckFlags(args, {"rf", "machine", "no-characterize", "budget",
                         "max-ii", "policy", "non-iterative", "cache",
                         "cache-mem", "cache-mem-bytes", "out", "trace",
                         "stats"})) {
    return Usage();
  }
  const auto loop =
      std::make_shared<const workload::Loop>(io::LoadLoopFile(args.positional[0]));
  const MachineConfig m = MachineFromFlags(args);
  const core::MirsOptions opt = OptionsFromFlags(args);

  service::BatchRequest req;
  req.id = loop->ddg.name().empty() ? args.positional[0] : loop->ddg.name();
  req.loop = loop;
  req.machine = m;
  req.options = opt;

  const service::BatchReport report =
      service::RunBatch({req}, SessionFromFlags(args));
  const service::BatchItem& item = report.items[0];
  PrintItem(item);
  if (!item.ok) return 1;

  const std::string text = io::DumpResult(item.result);
  if (const std::string* out = args.Flag("out")) {
    io::WriteFileAtomic(*out, text);
  } else {
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return 0;
}

/// Writes `result` to `<out_dir>/<id>.hclr`, with path separators in the
/// id flattened to '_': the one result-file layout of `run` and `submit`.
void WriteResultFile(const std::string& out_dir, std::string id,
                     const core::ScheduleResult& result) {
  for (char& c : id) {
    if (c == '/' || c == '\\') c = '_';
  }
  io::WriteFileAtomic((fs::path(out_dir) / (id + ".hclr")).string(),
                      io::DumpResult(result));
}

/// Prints a manifest run's items (unless `quiet`) and its batch and cache
/// summary lines, and writes each scheduled result to `out_dir`.
void ReportManifestRun(const service::BatchReport& report,
                       const service::ServiceConfig& config, bool quiet,
                       const std::string* out_dir) {
  for (const service::BatchItem& item : report.items) {
    if (!quiet) PrintItem(item);
    if (out_dir != nullptr && item.ok) {
      WriteResultFile(*out_dir, item.id, item.result);
    }
  }
  std::printf(
      "batch: %zu requests, %d scheduled, %d cache hits, %d failed, "
      "%.3f s wall\n",
      report.items.size(), report.scheduled, report.hits, report.failed,
      report.seconds);
  if (!config.cache_dir.empty()) {
    std::printf("cache: %ld hits, %ld misses, %ld rejects, %ld writes (%s)\n",
                report.cache.hits, report.cache.misses, report.cache.rejects,
                report.cache.writes, config.cache_dir.c_str());
  }
  if (config.cache_mem_entries > 0) {
    std::printf(
        "mem-cache: %ld hits, %ld near hits, %ld near misses, %ld writes, "
        "%ld evictions, %ld oversize; %ld entries, %ld bytes resident\n",
        report.mem_cache.hits, report.mem_cache.near_hits,
        report.mem_cache.near_misses, report.mem_cache.writes,
        report.mem_cache.evictions, report.mem_cache.oversize,
        report.mem_cache.entries, report.mem_cache.bytes);
  }
}

int CmdRun(const Args& args) {
  if (args.positional.size() != 1 ||
      !CheckFlags(args, {"cache", "cache-mem", "cache-mem-bytes", "threads",
                         "out-dir", "quiet", "trace", "stats"})) {
    return Usage();
  }
  const service::ServiceConfig config = SessionFromFlags(args);
  const service::BatchReport report =
      service::RunManifest(args.positional[0], config);
  ReportManifestRun(report, config, args.Flag("quiet") != nullptr,
                    args.Flag("out-dir"));
  return report.failed == 0 ? 0 : 1;
}

/// What one leg of a cold/warm smoke check reports.
struct SmokeLeg {
  int requests = 0;
  int hits = 0;
  int scheduled = 0;
  bool ok = true;      ///< The leg's own checks passed (no failures).
  std::string output;  ///< Rendered results; the warm leg's must match.
};

/// The cold/warm self-check of `smoke`, `sweep --smoke` and `repro
/// --smoke`: `leg(session)` runs twice on one session over a fresh cache
/// (a temporary directory unless --cache names an empty one; user data is
/// never deleted). The warm leg must be served entirely from the cache —
/// from the memory tier when --cache-mem configures one — and render the
/// cold leg's output byte for byte. Prints "<name>: PASS|FAIL".
template <typename Leg>
bool ColdWarmSmoke(const char* name, service::ServiceConfig config,
                   Leg&& leg) {
  std::error_code ec;
  const bool temporary = config.cache_dir.empty();
  if (temporary) {
    config.cache_dir = (fs::temp_directory_path() /
                        ("hcrf-smoke-" + std::to_string(::getpid())))
                           .string();
    fs::remove_all(config.cache_dir, ec);
  } else if (fs::exists(config.cache_dir, ec) &&
             !fs::is_empty(config.cache_dir, ec)) {
    std::fprintf(stderr,
                 "%s: --cache=%s exists and is not empty; the cold run needs "
                 "a fresh cache and will not delete user data\n",
                 name, config.cache_dir.c_str());
    return false;
  }
  bool ok;
  {
    service::SchedulerService session(config);
    std::printf("== cold run ==\n");
    const SmokeLeg cold = leg(session);
    session.Drain();  // cold writes land before the warm leg probes disk
    std::printf("== warm run ==\n");
    const SmokeLeg warm = leg(session);
    ok = cold.ok && warm.ok;
    if (warm.scheduled != 0 || warm.hits != warm.requests) {
      std::fprintf(stderr,
                   "%s: warm run expected all cache hits, got %d hits / %d "
                   "scheduled of %d requests\n",
                   name, warm.hits, warm.scheduled, warm.requests);
      ok = false;
    }
    if (warm.output != cold.output) {
      std::fprintf(stderr, "%s: warm output differs from the cold run's\n",
                   name);
      ok = false;
    }
    if (config.cache_mem_entries > 0 && session.memory_stats().hits <= 0) {
      std::fprintf(stderr,
                   "%s: --cache-mem warm run never hit the memory tier\n",
                   name);
      ok = false;
    }
    std::printf("%s: %s (%d requests, warm run served %d from cache)\n", name,
                ok ? "PASS" : "FAIL", warm.requests, warm.hits);
  }
  if (temporary) fs::remove_all(config.cache_dir, ec);
  return ok;
}

/// `mii_before` is the MII sweep cache's snapshot from before the run: the
/// cache is process-wide, so its counters are printed as this run's delta
/// (entries stay the residency at the end).
void PrintSweepSummary(const service::SweepReport& report,
                       const std::string& cache_dir,
                       const perf::MiiCacheStats& mii_before) {
  std::printf(
      "sweep %s: %zu organizations x %zu loops, %d scheduled, %d cache "
      "hits, %d failed, %.3f s wall\n",
      report.name.c_str(), report.orgs.size(), report.loops.size(),
      report.scheduled, report.hits, report.failed, report.seconds);
  for (const std::string& s : report.skipped) {
    std::printf("  skipped %s\n", s.c_str());
  }
  if (!cache_dir.empty()) {
    std::printf("cache: %ld hits, %ld misses, %ld rejects, %ld writes (%s)\n",
                report.cache.hits, report.cache.misses, report.cache.rejects,
                report.cache.writes, cache_dir.c_str());
  }
  const perf::MiiCacheStats mii = perf::GetMiiCacheStats();
  std::printf("mii-cache: %ld hits, %ld misses, %ld entries, %ld evictions\n",
              mii.hits - mii_before.hits, mii.misses - mii_before.misses,
              mii.entries, mii.evictions - mii_before.evictions);
}

int CmdSweep(const Args& args) {
  if (args.positional.size() != 1 ||
      !CheckFlags(args, {"cache", "cache-mem", "cache-mem-bytes", "threads",
                         "out-dir", "quiet", "smoke"})) {
    return Usage();
  }
  const std::string& spec_path = args.positional[0];
  const service::SweepSpec spec = service::LoadSweepSpecFile(spec_path);
  const std::string base_dir = fs::path(spec_path).parent_path().string();

  const service::ServiceConfig config = SessionFromFlags(args);

  // Unschedulable (org, loop) cells are sweep *data* — the paper's grid
  // includes organizations where loops legitimately fail — so they do not
  // fail the command; only smoke-check violations do.
  service::SweepReport report;
  bool ok = true;
  if (args.Flag("smoke") != nullptr) {
    bool cold_leg = true;
    ok = ColdWarmSmoke(
        "sweep smoke", config, [&](service::SchedulerService& session) {
          const perf::MiiCacheStats mii_before = perf::GetMiiCacheStats();
          service::SweepReport r = service::RunSweep(spec, base_dir, session);
          PrintSweepSummary(r, session.config().cache_dir, mii_before);
          SmokeLeg leg{static_cast<int>(r.cells.size()), r.hits, r.scheduled,
                       true, service::SweepCsv(r) + service::SweepMarkdown(r)};
          if (std::exchange(cold_leg, false)) report = std::move(r);
          return leg;
        });
    if (cold_leg) return 1;  // refused a non-empty --cache directory
  } else {
    const perf::MiiCacheStats mii_before = perf::GetMiiCacheStats();
    report = service::RunSweep(spec, base_dir, config);
    PrintSweepSummary(report, config.cache_dir, mii_before);
  }
  const std::string csv = service::SweepCsv(report);
  const std::string md = service::SweepMarkdown(report);

  const std::string* out_dir = args.Flag("out-dir");
  const std::string dir = out_dir != nullptr ? *out_dir : ".";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string csv_path =
      (fs::path(dir) / (report.name + ".csv")).string();
  const std::string md_path = (fs::path(dir) / (report.name + ".md")).string();
  io::WriteFileAtomic(csv_path, csv);
  io::WriteFileAtomic(md_path, md);
  std::printf("reports: %s %s\n", csv_path.c_str(), md_path.c_str());
  if (args.Flag("quiet") == nullptr) {
    std::fwrite(md.data(), 1, md.size(), stdout);
  }
  return ok ? 0 : 1;
}

int CmdDump(const Args& args) {
  if (args.positional.size() != 1 || !CheckFlags(args, {})) return Usage();
  const std::string& path = args.positional[0];
  const std::string text = io::ReadFile(path);
  // Dispatch on the document kind named in the header's third token.
  std::string kind;
  const size_t nl = text.find('\n');
  const std::string header = text.substr(0, nl);
  const size_t last_space = header.rfind(' ');
  if (last_space != std::string::npos) kind = header.substr(last_space + 1);
  std::string out;
  if (kind == "loop") {
    out = io::DumpLoop(io::ParseLoop(text, path));
  } else if (kind == "machine") {
    out = io::DumpMachine(io::ParseMachine(text, path));
  } else if (kind == "options") {
    out = io::DumpOptions(io::ParseOptions(text, path));
  } else if (kind == "result") {
    out = io::DumpResult(io::ParseResult(text, path));
  } else {
    std::fprintf(stderr, "%s: unrecognized document kind '%s'\n",
                 path.c_str(), kind.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

int CmdValidate(const Args& args) {
  if (args.positional.size() != 1 || !CheckFlags(args, {})) return Usage();
  const std::string& path = args.positional[0];
  const workload::Loop loop = io::LoadLoopFile(path);
  const DDG& g = loop.ddg;
  const DDG::OpCounts counts = g.CountOps(LatencyTable{});
  std::printf(
      "%s: ok\n  name %s\n  nodes %d (compute %d, memory %d, comm %d)\n"
      "  edges %d\n  invariants %d\n  trip %ld x %ld invocations\n",
      path.c_str(), g.name().empty() ? "<anonymous>" : g.name().c_str(),
      g.NumNodes(), counts.compute, counts.memory, counts.comm, g.NumEdges(),
      g.num_invariants(), loop.trip, loop.invocations);
  return 0;
}

int CmdExport(const Args& args) {
  if (!args.positional.empty() ||
      !CheckFlags(args, {"suite", "n", "rf", "out"})) {
    return Usage();
  }
  const std::string* suite_flag = args.Flag("suite");
  const std::string suite_name =
      suite_flag != nullptr ? *suite_flag : "kernels";
  const std::string* out_flag = args.Flag("out");
  const std::string out_dir = out_flag != nullptr ? *out_flag : "corpus";
  const std::string* rf_flag = args.Flag("rf");
  const std::string rf = rf_flag != nullptr ? *rf_flag : "4C16S64/2-1";

  const workload::Suite* suite = workload::SharedSuiteByName(suite_name);
  if (suite == nullptr) {
    std::fprintf(stderr, "hcrf_sched: unknown --suite=%s\n",
                 suite_name.c_str());
    return 1;
  }
  size_t n = suite->size();
  if (const std::string* nv = args.Flag("n")) {
    const long parsed = ParseLongFlag("n", *nv);
    if (parsed < 0) {
      throw std::runtime_error("--n: expected a non-negative count, got '" +
                               *nv + "'");
    }
    n = std::min(n, static_cast<size_t>(parsed));
  }

  std::string manifest = "hcl 1 manifest\n";
  for (size_t i = 0; i < n; ++i) {
    const workload::Loop& loop = (*suite)[i];
    const std::string stem = loop.ddg.name().empty()
                                 ? suite_name + "-" + std::to_string(i)
                                 : loop.ddg.name();
    const std::string rel = suite_name + "/" + stem + ".hcl";
    io::WriteFileAtomic((fs::path(out_dir) / rel).string(),
                        io::DumpLoop(loop));
    manifest += "request graph " + rel + " rf " + rf + "\n";
  }
  manifest += "end\n";
  const std::string manifest_path =
      (fs::path(out_dir) / (suite_name + ".manifest")).string();
  io::WriteFileAtomic(manifest_path, manifest);
  std::printf("exported %zu loops to %s/%s/ and %s\n", n, out_dir.c_str(),
              suite_name.c_str(), manifest_path.c_str());
  return 0;
}

// Metrics-registry dump (`stats`). A fresh process has mostly-zero
// instruments — the interesting use is `--stats` on the scheduling
// commands, which dumps the registry the run just populated — but a cache
// directory argument always works: its disk census is folded into the
// registry as gauges so the table and the JSON render it like every other
// instrument.
int CmdStats(const Args& args) {
  if (args.positional.size() > 1 || !CheckFlags(args, {"json"})) {
    return Usage();
  }
  if (!args.positional.empty()) {
    const service::DiskTier::DirStats ds =
        service::DiskTier::Scan(args.positional[0]);
    obs::GetGauge("sched_cache.disk_entries").Set(ds.entries);
    obs::GetGauge("sched_cache.disk_bytes").Set(ds.bytes);
    if (args.Flag("json") == nullptr) {
      std::printf("%s: %ld entries, %ld bytes\n", args.positional[0].c_str(),
                  ds.entries, ds.bytes);
    }
  }
  const std::string out = args.Flag("json") != nullptr
                              ? obs::Registry::Shared().Json()
                              : obs::Registry::Shared().Table();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

// Cold run, then warm run of a manifest against one fresh cache (see
// ColdWarmSmoke). This is the CI smoke and the acceptance check of the
// subsystem.
int CmdSmoke(const Args& args) {
  if (args.positional.size() != 1 || !CheckFlags(args, {"cache"})) {
    return Usage();
  }
  service::ServiceConfig config;
  if (const std::string* c = args.Flag("cache")) config.cache_dir = *c;
  const bool ok = ColdWarmSmoke(
      "smoke", config, [&](service::SchedulerService& session) {
        const service::BatchReport r =
            session.RunManifest(args.positional[0]);
        ReportManifestRun(r, session.config(), /*quiet=*/true, nullptr);
        SmokeLeg leg{static_cast<int>(r.items.size()), r.hits, r.scheduled,
                     r.failed == 0, ""};
        for (const service::BatchItem& item : r.items) {
          leg.output += item.id + "\n" + io::DumpResult(item.result);
        }
        return leg;
      });
  return ok ? 0 : 1;
}

void PrintReproSummary(const experiment::ReproReport& report,
                       const std::string& cache_dir) {
  int cells = 0, failed_cells = 0;
  for (const experiment::ExperimentResult& e : report.experiments) {
    cells += e.cells;
    failed_cells += e.cells_failed;
  }
  std::printf(
      "repro: %zu experiments, %d cells in %d deduplicated requests, "
      "%d scheduled, %d cache hits, %d failed cells, %.3f s wall\n",
      report.experiments.size(), cells, report.requests, report.scheduled,
      report.hits, failed_cells, report.seconds);
  std::printf(
      "timing: probe %.3f s, mii %.3f s, schedule %.3f s, cache-put %.3f s "
      "(summed per-request phases)\n",
      report.timing.cache_probe_seconds, report.timing.mii_seconds,
      report.timing.schedule_seconds, report.timing.cache_put_seconds);
  // Replays run on the batch lanes (inside the wall above); only the
  // aggregation is serial. Peak RSS covers the whole process so far.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "cells: replay %.3f s (summed on the batch lanes), %ld accesses (%ld "
      "simulated), %ld misses, %d replayed cells in %d distinct replays, "
      "aggregation %.3f s wall, peak RSS %.1f MiB\n",
      report.replay_seconds, report.replay_accesses, report.replay_simulated,
      report.replay_misses, report.replayed_cells, report.distinct_replays,
      report.metrics_seconds,
      static_cast<double>(ru.ru_maxrss) / 1024.0);
  if (!cache_dir.empty()) {
    std::printf("cache: %ld hits, %ld misses, %ld rejects, %ld writes (%s)\n",
                report.cache.hits, report.cache.misses, report.cache.rejects,
                report.cache.writes, cache_dir.c_str());
  }
  int na = 0;
  for (const experiment::ExperimentResult& e : report.experiments) {
    for (const experiment::RefCheck& c : e.refs) {
      if (!c.enforced) ++na;
    }
  }
  std::printf("refs: %d checked, %d pass, %d out of tolerance, %d n/a\n",
              report.RefChecks(), report.RefPasses(), report.ref_failures,
              na);
  for (const experiment::ExperimentResult& e : report.experiments) {
    for (const experiment::RefCheck& c : e.refs) {
      if (c.enforced && !c.passed) {
        std::fprintf(stderr, "repro: %s %s/%s: measured %g vs paper %g (%s)\n",
                     e.name.c_str(), c.ref->row.c_str(),
                     c.ref->metric.c_str(), c.measured, c.ref->paper,
                     c.verdict.c_str());
      }
    }
  }
}

// Runs the registered paper-reproduction experiments through the batch
// service. `--smoke` is the subsystem's acceptance check: bounded slices,
// cold run then warm run against a fresh cache; the warm run must be
// served entirely from the cache with byte-identical CSV/markdown.
int CmdRepro(const Args& args) {
  if (!args.positional.empty() ||
      !CheckFlags(args, {"list", "only", "out", "cache", "cache-mem",
                         "cache-mem-bytes", "threads", "quiet", "smoke",
                         "trace", "stats"})) {
    return Usage();
  }
  if (args.Flag("list") != nullptr) {
    std::printf("%-20s %-9s %-28s %s\n", "name", "cells", "workload",
                "title");
    for (const experiment::Experiment& e : experiment::Registry()) {
      const std::string workload =
          e.workload.suite.empty()
              ? "hardware model only"
              : e.workload.suite +
                    (e.workload.slice > 0
                         ? "[" + std::to_string(e.workload.slice) + "]"
                         : "") +
                    " x " + std::to_string(e.machines.size()) + "m x " +
                    std::to_string(e.engines.size()) + "e";
      std::printf("%-20s %-9zu %-28s %s\n", e.name.c_str(),
                  e.CellsPerLoop(), workload.c_str(), e.title.c_str());
    }
    return 0;
  }

  std::vector<const experiment::Experiment*> selection;
  if (const std::string* only = args.Flag("only")) {
    size_t start = 0;
    while (start <= only->size()) {
      const size_t comma = only->find(',', start);
      const std::string name = only->substr(
          start,
          comma == std::string::npos ? std::string::npos : comma - start);
      if (!name.empty()) {
        const experiment::Experiment* e = experiment::FindExperiment(name);
        if (e == nullptr) {
          std::fprintf(stderr,
                       "hcrf_sched: unknown experiment '%s' (see repro "
                       "--list)\n",
                       name.c_str());
          return 1;
        }
        selection.push_back(e);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (selection.empty()) {
      std::fprintf(stderr, "hcrf_sched: --only selected no experiments\n");
      return 1;
    }
  }

  const service::ServiceConfig config = SessionFromFlags(args);
  experiment::ReproOptions ropt;
  ropt.smoke = args.Flag("smoke") != nullptr;

  experiment::ReproReport report;
  bool ok;
  if (ropt.smoke) {
    bool cold_leg = true;
    ok = ColdWarmSmoke(
        "repro smoke", config, [&](service::SchedulerService& session) {
          experiment::ReproReport r =
              experiment::RunExperiments(selection, ropt, session);
          PrintReproSummary(r, session.config().cache_dir);
          SmokeLeg leg{r.requests, r.hits, r.scheduled, r.ref_failures == 0,
                       experiment::ReproCsv(r) + experiment::ReproMarkdown(r)};
          if (std::exchange(cold_leg, false)) report = std::move(r);
          return leg;
        });
    if (cold_leg) return 1;  // refused a non-empty --cache directory
  } else {
    service::SchedulerService session(config);
    report = experiment::RunExperiments(selection, ropt, session);
    session.Drain();  // exact write counts for the summary's cache line
    report.cache = session.tier_stats();
    PrintReproSummary(report, config.cache_dir);
    ok = report.ref_failures == 0;
  }
  const std::string csv = experiment::ReproCsv(report);
  const std::string md = experiment::ReproMarkdown(report);

  const std::string* out_dir = args.Flag("out");
  const std::string dir = out_dir != nullptr ? *out_dir : ".";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string csv_path = (fs::path(dir) / "repro.csv").string();
  const std::string md_path = (fs::path(dir) / "repro.md").string();
  io::WriteFileAtomic(csv_path, csv);
  io::WriteFileAtomic(md_path, md);
  std::printf("reports: %s %s\n", csv_path.c_str(), md_path.c_str());
  if (args.Flag("quiet") == nullptr) {
    std::fwrite(md.data(), 1, md.size(), stdout);
  }
  return ok ? 0 : 1;
}

// The resident daemon's stop request: signal handlers may only touch
// lock-free state, and Server::RequestStop() is async-signal-safe by
// contract (one write() to the self-pipe).
std::atomic<service::Server*> g_serve_instance{nullptr};

extern "C" void HandleServeSignal(int) {
  service::Server* server =
      g_serve_instance.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestStop();
}

// Resident scheduling daemon: one SchedulerService (cache stack, thread
// budget) serving line-framed submissions on a Unix socket until
// SIGTERM/SIGINT drains it.
int CmdServe(const Args& args) {
  if (!args.positional.empty() ||
      !CheckFlags(args, {"socket", "cache", "cache-mem", "cache-mem-bytes",
                         "threads", "max-inflight", "timeout-ms"})) {
    return Usage();
  }
  const std::string* socket = args.Flag("socket");
  if (socket == nullptr || socket->empty()) {
    std::fprintf(stderr, "serve: --socket=PATH is required\n");
    return 1;
  }
  service::ServerOptions config;
  config.socket_path = *socket;
  if (const std::string* v = args.Flag("max-inflight")) {
    config.max_inflight = ParseIntFlag("max-inflight", *v);
    if (config.max_inflight < 1) {
      throw std::runtime_error(
          "--max-inflight: expected a positive count, got '" + *v + "'");
    }
  }
  if (const std::string* v = args.Flag("timeout-ms")) {
    config.read_timeout_ms = ParseIntFlag("timeout-ms", *v);
    if (config.read_timeout_ms < 0) {
      throw std::runtime_error(
          "--timeout-ms: expected a non-negative timeout, got '" + *v + "'");
    }
  }
  config.service = SessionFromFlags(args);

  service::Server server(config);
  server.Start();
  g_serve_instance.store(&server, std::memory_order_relaxed);
  // Socket writes already use MSG_NOSIGNAL (wire::Conn::WriteAll), but a
  // resident daemon must survive EPIPE from any fd — e.g. stdout piped
  // to a scripted client that exits after the readiness line.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  std::printf("serve: listening on %s (max-inflight %d, cache %s, "
              "cache-mem %ld)\n",
              config.socket_path.c_str(), config.max_inflight,
              config.service.cache_dir.empty() ? "off"
                                             : config.service.cache_dir.c_str(),
              config.service.cache_mem_entries);
  std::fflush(stdout);  // readiness marker for scripted clients
  server.Serve();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_instance.store(nullptr, std::memory_order_relaxed);
  std::printf("serve: drained (%ld connections served, %ld bounced busy)\n",
              server.served(), server.bounced());
  return 0;
}

void PrintWireItem(const std::string& id, const service::wire::ReplyItem& item) {
  if (!item.ok) {
    std::printf("%-28s FAILED  %s\n", id.c_str(), item.error.c_str());
    return;
  }
  std::printf("%-28s II %3d (MII %3d)  SC %2d  bound %-7s %s\n", id.c_str(),
              item.result.ii, item.result.mii, item.result.sc,
              std::string(core::ToString(item.result.bound)).c_str(),
              item.cache_hit ? "cache-hit " : "scheduled ");
}

// Daemon client: resolves a manifest locally (same loader as `run`) and
// submits the batch over the socket; `--ping` / `--stats` /
// `--cache-stats` query the daemon instead. Exit 2 = server saturated.
int CmdSubmit(const Args& args) {
  if (!CheckFlags(args, {"socket", "delta", "ping", "stats", "cache-stats",
                         "out-dir", "quiet", "timeout-ms"})) {
    return Usage();
  }
  const std::string* socket = args.Flag("socket");
  if (socket == nullptr || socket->empty()) {
    std::fprintf(stderr, "submit: --socket=PATH is required\n");
    return 1;
  }
  int timeout_ms = 120000;
  if (const std::string* v = args.Flag("timeout-ms")) {
    timeout_ms = ParseIntFlag("timeout-ms", *v);
    if (timeout_ms < 0) {
      throw std::runtime_error(
          "--timeout-ms: expected a non-negative timeout, got '" + *v + "'");
    }
  }
  const bool ping = args.Flag("ping") != nullptr;
  const bool stats = args.Flag("stats") != nullptr;
  const bool cache_stats = args.Flag("cache-stats") != nullptr;
  if (ping + stats + cache_stats > 1) {
    std::fprintf(stderr,
                 "submit: --ping/--stats/--cache-stats are exclusive\n");
    return 1;
  }
  const bool query = ping || stats || cache_stats;
  if (args.positional.size() != (query ? 0u : 1u)) return Usage();

  service::Client client(*socket, timeout_ms);
  if (ping) {
    if (!client.Ping()) {
      std::fprintf(stderr, "submit: server busy\n");
      return 2;
    }
    std::printf("ok\n");
    return 0;
  }
  if (stats || cache_stats) {
    const std::string payload = stats ? client.Stats() : client.CacheStats();
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    return 0;
  }

  // `--delta=N:LAT[,...]`: the what-if perturbation list, parsed up
  // front so a malformed spec fails before anything is submitted.
  std::vector<std::pair<int, int>> delta;
  if (const std::string* spec = args.Flag("delta")) {
    size_t start = 0;
    while (start <= spec->size()) {
      const size_t comma = spec->find(',', start);
      const std::string pair = spec->substr(
          start,
          comma == std::string::npos ? std::string::npos : comma - start);
      if (!pair.empty()) {
        const size_t colon = pair.find(':');
        if (colon == std::string::npos) {
          throw std::runtime_error("--delta: expected NODE:LATENCY, got '" +
                                   pair + "'");
        }
        const int node = ParseIntFlag("delta", pair.substr(0, colon));
        const int latency = ParseIntFlag("delta", pair.substr(colon + 1));
        if (node < 0 || latency < 1) {
          throw std::runtime_error(
              "--delta: node must be >= 0 and latency >= 1 in '" + pair +
              "'");
        }
        delta.emplace_back(node, latency);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  const std::string& manifest_path = args.positional[0];
  const std::vector<service::ManifestEntry> entries =
      service::LoadManifestFile(manifest_path);
  const std::string base_dir =
      fs::path(manifest_path).parent_path().string();
  std::vector<service::BatchRequest> requests;
  requests.reserve(entries.size());
  for (const service::ManifestEntry& entry : entries) {
    // Unlike `run`, a client fails fast on an unloadable entry: nothing
    // has been submitted yet, so there is no partial batch to salvage.
    requests.push_back(service::ResolveManifestEntry(entry, base_dir));
    if (args.Flag("delta") != nullptr) {
      // Node ids are per-loop: an entry beyond this loop's slot count
      // simply has no node to perturb there.
      service::BatchRequest& req = requests.back();
      const NodeId slots = req.loop->ddg.NumSlots();
      req.overrides.producer_latency.assign(static_cast<size_t>(slots), 0);
      for (const auto& [node, latency] : delta) {
        if (node < slots) {
          req.overrides.producer_latency[static_cast<size_t>(node)] = latency;
        }
      }
    }
  }

  const service::SubmitReply reply = args.Flag("delta") != nullptr
                                         ? client.SubmitDelta(requests)
                                         : client.Submit(requests);
  if (reply.busy) {
    std::fprintf(stderr,
                 "submit: server busy (max-inflight reached); retry later\n");
    return 2;
  }
  if (reply.items.size() != requests.size()) {
    std::fprintf(stderr, "submit: server returned %zu items for %zu requests\n",
                 reply.items.size(), requests.size());
    return 1;
  }
  const bool quiet = args.Flag("quiet") != nullptr;
  const std::string* out_dir = args.Flag("out-dir");
  int failed = 0, hits = 0;
  for (size_t i = 0; i < reply.items.size(); ++i) {
    const service::wire::ReplyItem& item = reply.items[i];
    if (!item.ok) ++failed;
    if (item.cache_hit) ++hits;
    if (!quiet) PrintWireItem(requests[i].id, item);
    if (out_dir != nullptr && item.ok) {
      WriteResultFile(*out_dir, requests[i].id, item.result);
    }
  }
  std::printf("submit: %zu requests, %d cache hits, %d failed (%s)\n",
              requests.size(), hits, failed, socket->c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  try {
    if (cmd == "schedule") {
      return RunTraced(args, [&] { return CmdSchedule(args); });
    }
    if (cmd == "run") return RunTraced(args, [&] { return CmdRun(args); });
    if (cmd == "sweep") return CmdSweep(args);
    if (cmd == "dump") return CmdDump(args);
    if (cmd == "validate") return CmdValidate(args);
    if (cmd == "export") return CmdExport(args);
    if (cmd == "stats") return CmdStats(args);
    if (cmd == "smoke") return CmdSmoke(args);
    if (cmd == "repro") return RunTraced(args, [&] { return CmdRepro(args); });
    if (cmd == "serve") return CmdServe(args);
    if (cmd == "submit") return CmdSubmit(args);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      Usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcrf_sched: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "hcrf_sched: unknown command '%s'\n", cmd.c_str());
  return Usage();
}
