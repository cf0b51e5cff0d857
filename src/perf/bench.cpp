#include "perf/bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "machine/machine_config.h"
#include "machine/rf_config.h"
#include "workload/suite_cache.h"

namespace hcrf::perf {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

MachineConfig BenchMachine(const std::string& rf_name) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf_name));
  if (!m.rf.UnboundedClusterRegs() && !m.rf.UnboundedSharedRegs()) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

LatencyQuantiles ComputeQuantiles(std::vector<double> v) {
  LatencyQuantiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto rank = [&v](double p) {
    // Nearest-rank: the smallest value with at least p of the mass below
    // or at it.
    size_t r = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    r = std::min(std::max<size_t>(r, 1), v.size());
    return v[r - 1];
  };
  q.p50 = rank(0.50);
  q.p95 = rank(0.95);
  q.p99 = rank(0.99);
  q.max = v.back();
  return q;
}

/// Everything one timed mode produces over one (suite slice, machine) case.
struct ModeOut {
  double seconds = 0;
  std::vector<double> per_loop;  ///< Mean seconds per loop across reps.
  long placements = 0;
  long ejections = 0;
  std::vector<core::ScheduleResult> results;  ///< Last repetition's.
};

/// One timed mode over one case: accumulates wall time (total and
/// per-loop), throughput stats and the last repetition's results for the
/// identity check.
ModeOut RunMode(const workload::Suite& suite, const MachineConfig& m,
                const std::vector<MIIInfo>& mii,
                const core::MirsOptions& mirs, int reps) {
  ModeOut out;
  out.per_loop.assign(suite.size(), 0.0);
  out.results.reserve(suite.size());
  core::MirsOptions opt = mirs;
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep == reps - 1;
    for (size_t i = 0; i < suite.size(); ++i) {
      opt.precomputed_mii = mii[i];
      const Clock::time_point t0 = Clock::now();
      core::ScheduleResult res = core::MirsHC(suite[i].ddg, m, opt);
      const double dt = Seconds(t0, Clock::now());
      out.seconds += dt;
      out.per_loop[i] += dt;
      out.placements += res.stats.attempts;
      out.ejections += res.stats.ejections;
      if (last) out.results.push_back(std::move(res));
    }
  }
  for (double& s : out.per_loop) s /= reps;
  return out;
}

/// Dump-level identity of two modes' results; counts unschedulable loops
/// via `failed`.
void CompareResults(const std::vector<core::ScheduleResult>& ref,
                    const std::vector<core::ScheduleResult>& alt,
                    BenchCase& c) {
  for (size_t i = 0; i < ref.size(); ++i) {
    const core::ScheduleResult& a = ref[i];
    const core::ScheduleResult& b = alt[i];
    if (a.ok != b.ok) {
      c.identical = false;
      continue;
    }
    if (!a.ok) {
      ++c.failed;
      continue;
    }
    if (io::DumpResult(a) != io::DumpResult(b)) c.identical = false;
  }
}

BenchCase RunCase(const std::string& suite_name,
                  const workload::Suite& suite, const std::string& rf_name,
                  int reps) {
  BenchCase c;
  c.suite = suite_name;
  c.rf = rf_name;
  c.loops = static_cast<int>(suite.size());
  c.reps = reps;

  const MachineConfig m = BenchMachine(rf_name);
  std::vector<MIIInfo> mii;
  mii.reserve(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    mii.push_back(CachedMii(suite[i].ddg, m));
  }

  core::MirsOptions mirs;
  mirs.incremental = false;
  const ModeOut ref = RunMode(suite, m, mii, mirs, reps);
  c.reference_seconds = ref.seconds;

  mirs.incremental = true;
  const ModeOut inc = RunMode(suite, m, mii, mirs, reps);
  c.incremental_seconds = inc.seconds;
  c.placements = inc.placements;
  c.ejections = inc.ejections;
  c.serial_latency = ComputeQuantiles(inc.per_loop);
  CompareResults(ref.results, inc.results, c);
  return c;
}

/// One loop of the delta leg, prepared outside the timed region: the
/// unperturbed base schedule (the warm-start seed), the single-load
/// perturbation, and the perturbed MII handed to both timed modes.
struct DeltaLoop {
  size_t index = 0;
  std::shared_ptr<const core::ScheduleResult> base;
  sched::LatencyOverrides overrides;
  MIIInfo mii;
};

DeltaCase RunDeltaCase(const workload::Suite& suite,
                       const std::string& rf_name, int reps) {
  DeltaCase d;
  d.rf = rf_name;
  d.reps = reps;
  const MachineConfig m = BenchMachine(rf_name);

  core::MirsOptions opt;
  opt.incremental = true;

  // Prepare (untimed): base schedules and one hardened load per loop.
  // Hardening (raising the first load's producer latency toward — at
  // least past — its hit latency) only shrinks the feasible-II set, so
  // warm II <= cold II is guaranteed analytically, not just measured.
  std::vector<DeltaLoop> prepared;
  for (size_t i = 0; i < suite.size(); ++i) {
    const DDG& ddg = suite[i].ddg;
    NodeId load = -1;
    for (NodeId v = 0; v < ddg.NumSlots(); ++v) {
      if (ddg.IsAlive(v) && ddg.node(v).op == OpClass::kLoad) {
        load = v;
        break;
      }
    }
    if (load < 0) {
      ++d.skipped;
      continue;
    }
    DeltaLoop dl;
    dl.index = i;
    opt.precomputed_mii = CachedMii(ddg, m);
    opt.warm_start = nullptr;
    core::ScheduleResult base = core::MirsHC(ddg, m, opt);
    if (!base.ok) {
      ++d.skipped;
      continue;
    }
    dl.base = std::make_shared<const core::ScheduleResult>(std::move(base));
    dl.overrides.producer_latency.assign(
        static_cast<size_t>(ddg.NumSlots()), 0);
    dl.overrides.producer_latency[static_cast<size_t>(load)] =
        std::max(m.lat.load_miss, m.lat.load_hit + 1);
    dl.mii = CachedMii(ddg, m, dl.overrides);
    prepared.push_back(std::move(dl));
  }
  d.loops = static_cast<int>(prepared.size());
  if (prepared.empty()) return d;

  std::vector<double> cold_loop(prepared.size(), 0.0);
  std::vector<double> warm_loop(prepared.size(), 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep == reps - 1;
    for (size_t j = 0; j < prepared.size(); ++j) {
      const DeltaLoop& dl = prepared[j];
      const DDG& ddg = suite[dl.index].ddg;
      opt.precomputed_mii = dl.mii;

      opt.warm_start = nullptr;
      Clock::time_point t0 = Clock::now();
      const core::ScheduleResult cold =
          core::MirsHC(ddg, m, opt, dl.overrides);
      double dt = Seconds(t0, Clock::now());
      d.cold_seconds += dt;
      cold_loop[j] += dt;
      d.rebuild_placements += cold.stats.attempts;

      opt.warm_start = dl.base;
      t0 = Clock::now();
      const core::ScheduleResult warm =
          core::MirsHC(ddg, m, opt, dl.overrides);
      dt = Seconds(t0, Clock::now());
      d.warm_seconds += dt;
      warm_loop[j] += dt;
      d.repair_placements += warm.stats.attempts;

      if (last) {
        d.seeded += warm.warm.seeded;
        if (warm.warm.fallback) ++d.fallbacks;
        if (cold.ok != warm.ok || (cold.ok && warm.ii > cold.ii)) {
          d.ii_never_worse = false;
        }
      }
    }
  }
  opt.warm_start = nullptr;
  for (double& s : cold_loop) s /= reps;
  for (double& s : warm_loop) s /= reps;
  d.cold_latency = ComputeQuantiles(cold_loop);
  d.warm_latency = ComputeQuantiles(warm_loop);
  return d;
}

void AppendQuantiles(std::string& out, const char* key,
                     const LatencyQuantiles& q) {
  out += std::string("\"") + key + "\": {\"p50\": " + io::FormatDouble(q.p50) +
         ", \"p95\": " + io::FormatDouble(q.p95) +
         ", \"p99\": " + io::FormatDouble(q.p99) +
         ", \"max\": " + io::FormatDouble(q.max) + "}";
}

void Append(std::string& out, const BenchCase& c) {
  out += "    {\"suite\": \"" + c.suite + "\", \"rf\": \"" + c.rf + "\",\n";
  out += "     \"loops\": " + std::to_string(c.loops) +
         ", \"reps\": " + std::to_string(c.reps) +
         ", \"failed\": " + std::to_string(c.failed) + ",\n";
  out += "     \"identical\": " + std::string(c.identical ? "true" : "false") +
         ",\n";
  out += "     \"reference_seconds\": " + io::FormatDouble(c.reference_seconds) +
         ",\n";
  out += "     \"incremental_seconds\": " +
         io::FormatDouble(c.incremental_seconds) + ",\n";
  out += "     \"speedup\": " + io::FormatDouble(c.Speedup()) + ",\n";
  out += "     \"latency\": {";
  AppendQuantiles(out, "serial", c.serial_latency);
  out += "},\n";
  out += "     \"placements\": " + std::to_string(c.placements) +
         ", \"ejections\": " + std::to_string(c.ejections) + ",\n";
  out += "     \"placements_per_sec\": " +
         io::FormatDouble(c.incremental_seconds > 0
                              ? static_cast<double>(c.placements) /
                                    c.incremental_seconds
                              : 0.0) +
         ",\n";
  out += "     \"ejections_per_sec\": " +
         io::FormatDouble(c.incremental_seconds > 0
                              ? static_cast<double>(c.ejections) /
                                    c.incremental_seconds
                              : 0.0) +
         "}";
}

}  // namespace

BenchReport RunBench(const BenchOptions& opt) {
  BenchReport report;

  const workload::Suite& kernels = workload::SharedKernelSuite();
  const workload::Suite& synth_full = workload::SharedSyntheticSuite();

  // Explicit options always win; smoke only shrinks the unset knobs.
  std::vector<std::string> orgs = opt.rf_names;
  if (orgs.empty()) {
    orgs = opt.smoke
               ? std::vector<std::string>{"4C16S64/2-1"}
               : std::vector<std::string>{"4C16S64/2-1", "4C32/1-1", "S64"};
  }
  const int kernel_reps =
      opt.kernel_reps > 0 ? opt.kernel_reps : (opt.smoke ? 5 : 60);
  const int synth_reps = opt.synth_reps > 0 ? opt.synth_reps : 1;
  int synth_loops = opt.synth_loops;
  if (synth_loops <= 0 && opt.smoke) synth_loops = 64;
  workload::Suite synth_slice;
  const workload::Suite* synth = &synth_full;
  if (synth_loops > 0) {
    synth_slice =
        workload::SuiteSlice(synth_full, static_cast<size_t>(synth_loops));
    synth = &synth_slice;
  }

  for (const std::string& rf : orgs) {
    report.cases.push_back(RunCase("kernels", kernels, rf, kernel_reps));
    report.cases.push_back(RunCase("synth", *synth, rf, synth_reps));
    report.delta.push_back(RunDeltaCase(kernels, rf, kernel_reps));
  }

  for (const BenchCase& c : report.cases) {
    report.reference_seconds += c.reference_seconds;
    report.incremental_seconds += c.incremental_seconds;
    report.placements += c.placements;
    report.ejections += c.ejections;
    if (!c.identical) report.identical = false;
  }
  report.host = QueryHostInfo();
  report.mii_cache = GetMiiCacheStats();
  return report;
}

HostInfo QueryHostInfo() {
  HostInfo h;
  h.hardware_concurrency = std::thread::hardware_concurrency();
#ifdef NDEBUG
  h.build_type = "release";
#else
  h.build_type = "debug";
#endif
  return h;
}

std::string BenchJson(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"format\": \"hcrf-bench-5\",\n";
  out += "  \"generated_by\": \"hcrf_sched bench\",\n";
  out += "  \"host\": {\"hardware_concurrency\": " +
         std::to_string(report.host.hardware_concurrency) +
         ", \"build_type\": \"" + report.host.build_type + "\"},\n";
  out += "  \"threads\": 1,\n";
  out += "  \"identical\": " +
         std::string(report.identical ? "true" : "false") + ",\n";
  out += "  \"cases\": [\n";
  for (size_t i = 0; i < report.cases.size(); ++i) {
    Append(out, report.cases[i]);
    out += i + 1 < report.cases.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"delta\": [\n";
  for (size_t i = 0; i < report.delta.size(); ++i) {
    const DeltaCase& d = report.delta[i];
    out += "    {\"rf\": \"" + d.rf + "\",\n";
    out += "     \"loops\": " + std::to_string(d.loops) +
           ", \"skipped\": " + std::to_string(d.skipped) +
           ", \"reps\": " + std::to_string(d.reps) +
           ", \"fallbacks\": " + std::to_string(d.fallbacks) + ",\n";
    out += "     \"cold_seconds\": " + io::FormatDouble(d.cold_seconds) +
           ", \"warm_seconds\": " + io::FormatDouble(d.warm_seconds) + ",\n";
    out += "     \"latency\": {";
    AppendQuantiles(out, "cold", d.cold_latency);
    out += ",\n                 ";
    AppendQuantiles(out, "warm", d.warm_latency);
    out += ",\n                 \"p50_speedup\": " +
           io::FormatDouble(d.P50Speedup()) + ", \"p95_speedup\": " +
           io::FormatDouble(d.P95Speedup()) + "},\n";
    out += "     \"rebuild_placements\": " +
           std::to_string(d.rebuild_placements) +
           ", \"repair_placements\": " + std::to_string(d.repair_placements) +
           ", \"seeded\": " + std::to_string(d.seeded) + ",\n";
    out += "     \"ii_never_worse\": " +
           std::string(d.ii_never_worse ? "true" : "false") + "}";
    out += i + 1 < report.delta.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  if (report.pre_pr.present) {
    std::string note = report.pre_pr.note;
    for (char& ch : note) {
      if (ch == '"' || ch == '\\') ch = '\'';
    }
    out += "  \"pre_pr\": {\n";
    out += "    \"baseline_seconds\": " +
           io::FormatDouble(report.pre_pr.baseline_seconds) + ",\n";
    out += "    \"current_seconds\": " +
           io::FormatDouble(report.pre_pr.current_seconds) + ",\n";
    out += "    \"speedup\": " + io::FormatDouble(report.pre_pr.Speedup()) +
           ",\n";
    out += "    \"note\": \"" + note + "\"\n";
    out += "  },\n";
  }
  out += "  \"totals\": {\n";
  out += "    \"reference_seconds\": " +
         io::FormatDouble(report.reference_seconds) + ",\n";
  out += "    \"incremental_seconds\": " +
         io::FormatDouble(report.incremental_seconds) + ",\n";
  out += "    \"speedup\": " + io::FormatDouble(report.Speedup()) + ",\n";
  out += "    \"placements\": " + std::to_string(report.placements) + ",\n";
  out += "    \"ejections\": " + std::to_string(report.ejections) + ",\n";
  out += "    \"placements_per_sec\": " +
         io::FormatDouble(report.incremental_seconds > 0
                              ? static_cast<double>(report.placements) /
                                    report.incremental_seconds
                              : 0.0) +
         ",\n";
  out += "    \"ejections_per_sec\": " +
         io::FormatDouble(report.incremental_seconds > 0
                              ? static_cast<double>(report.ejections) /
                                    report.incremental_seconds
                              : 0.0) +
         "\n  },\n";
  if (report.service.present) {
    const auto phases = [](const ServicePhaseSeconds& p) {
      return "{\"queue\": " + io::FormatDouble(p.queue) +
             ", \"cache_probe\": " + io::FormatDouble(p.cache_probe) +
             ", \"mii\": " + io::FormatDouble(p.mii) +
             ", \"schedule\": " + io::FormatDouble(p.schedule) +
             ", \"serialize\": " + io::FormatDouble(p.serialize) + "}";
    };
    out += "  \"service\": {\n";
    out += "    \"requests\": " + std::to_string(report.service.requests) +
           ", \"warm_hits\": " + std::to_string(report.service.warm_hits) +
           ",\n";
    out += "    \"cold_seconds\": " +
           io::FormatDouble(report.service.cold_seconds) +
           ", \"warm_seconds\": " +
           io::FormatDouble(report.service.warm_seconds) + ",\n";
    out += "    \"cold_phases\": " + phases(report.service.cold) + ",\n";
    out += "    \"warm_phases\": " + phases(report.service.warm) + "\n";
    out += "  },\n";
  }
  const long lookups = report.mii_cache.hits + report.mii_cache.misses;
  out += "  \"mii_cache\": {\"hits\": " + std::to_string(report.mii_cache.hits) +
         ", \"misses\": " + std::to_string(report.mii_cache.misses) +
         ", \"hit_rate\": " +
         io::FormatDouble(lookups > 0 ? static_cast<double>(
                                            report.mii_cache.hits) /
                                            static_cast<double>(lookups)
                                      : 0.0) +
         "}\n";
  out += "}\n";
  return out;
}

namespace {

/// Position of `key` within [from, to) of `s`, or npos. The baseline
/// scanner works on BenchJson's own deterministic output, so targeted
/// key searches are exact — no JSON library needed (or available).
std::size_t FindIn(const std::string& s, std::size_t from, std::size_t to,
                   const std::string& key) {
  const std::size_t p = s.find(key, from);
  return p == std::string::npos || p >= to ? std::string::npos : p;
}

/// Parses the number immediately following `key` within [from, to).
bool ScanNumber(const std::string& s, std::size_t from, std::size_t to,
                const std::string& key, double* out) {
  const std::size_t p = FindIn(s, from, to, key);
  if (p == std::string::npos) return false;
  *out = std::strtod(s.c_str() + p + key.size(), nullptr);
  return true;
}

/// Parses the quoted string opened right after `key` within [from, to).
bool ScanString(const std::string& s, std::size_t from, std::size_t to,
                const std::string& key, std::string* out) {
  const std::size_t p = FindIn(s, from, to, key);
  if (p == std::string::npos) return false;
  const std::size_t begin = p + key.size();
  const std::size_t quote = s.find('"', begin);
  if (quote == std::string::npos || quote > to) return false;
  *out = s.substr(begin, quote - begin);
  return true;
}

}  // namespace

BaselineCheck CompareAgainstBaseline(const BenchReport& current,
                                     const std::string& baseline_json,
                                     double tolerance) {
  BaselineCheck out;
  if (baseline_json.find("\"format\": \"hcrf-bench-") == std::string::npos) {
    out.error = "baseline is not an hcrf-bench JSON report";
    return out;
  }
  const std::size_t cases_at = baseline_json.find("\"cases\": [");
  if (cases_at == std::string::npos) {
    out.error = "baseline has no cases array";
    return out;
  }
  const std::size_t cases_end = baseline_json.find("\n  ]", cases_at);
  const std::size_t end =
      cases_end == std::string::npos ? baseline_json.size() : cases_end;

  std::size_t cursor = baseline_json.find("{\"suite\": \"", cases_at);
  while (cursor != std::string::npos && cursor < end) {
    std::size_t next = baseline_json.find("{\"suite\": \"", cursor + 1);
    if (next == std::string::npos || next > end) next = end;

    std::string suite;
    std::string rf;
    double serial_p95 = 0;
    const bool named =
        ScanString(baseline_json, cursor, next, "\"suite\": \"", &suite) &&
        ScanString(baseline_json, cursor, next, "\"rf\": \"", &rf);
    const std::size_t serial_at =
        FindIn(baseline_json, cursor, next, "\"serial\": {");
    if (serial_at != std::string::npos) {
      ScanNumber(baseline_json, serial_at, next, "\"p95\": ", &serial_p95);
    }

    const BenchCase* cur = nullptr;
    if (named) {
      for (const BenchCase& c : current.cases) {
        if (c.suite == suite && c.rf == rf) {
          cur = &c;
          break;
        }
      }
    }
    if (cur != nullptr && serial_p95 > 0 && cur->serial_latency.p95 > 0) {
      BaselineCaseCheck chk;
      chk.suite = suite;
      chk.rf = rf;
      chk.baseline = serial_p95;
      chk.current = cur->serial_latency.p95;
      chk.regressed = chk.current > chk.baseline * (1.0 + tolerance);
      ++out.compared;
      if (chk.regressed) ++out.regressions;
      out.checks.push_back(std::move(chk));
    }
    cursor = next == end ? std::string::npos : next;
  }
  if (out.compared == 0) {
    out.error = "no comparable legs between baseline and current report";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace hcrf::perf
