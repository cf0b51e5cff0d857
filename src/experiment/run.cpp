#include "experiment/run.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "memsim/prefetch.h"
#include "memsim/replay.h"
#include "obs/trace.h"
#include "perf/runner.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/suite_cache.h"

namespace hcrf::experiment {

namespace {

/// Deterministic short rendering for report cells ("%.6g": enough digits
/// for the paper's precision, stable across cold/warm runs because the
/// underlying doubles are bit-identical).
std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

std::string FmtDelta(double v) {
  if (v > -1e-12 && v < 1e-12) v = 0.0;  // don't print rounding noise
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.6g", v);
  return std::string(buf);
}

/// Per-experiment expansion plan: the resolved workload plus, for every
/// (machine, engine, loop) cell, the index of its deduplicated batch
/// request.
struct Plan {
  const Experiment* def = nullptr;
  std::shared_ptr<const workload::Suite> owned;  ///< Slice storage.
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  std::vector<std::size_t> cell_request;
};

std::vector<std::shared_ptr<const workload::Loop>> ResolveWorkload(
    const WorkloadSpec& spec, bool smoke,
    std::shared_ptr<const workload::Suite>* owned) {
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  if (spec.suite.empty()) return loops;
  const workload::Suite* base = workload::SharedSuiteByName(spec.suite);
  if (base == nullptr) {
    throw std::runtime_error("experiment references unknown suite '" +
                             spec.suite + "'");
  }
  std::size_t n = smoke ? spec.smoke_slice : spec.slice;
  if (smoke && spec.slice != 0 && spec.slice < n) n = spec.slice;
  if (n == 0 || n >= base->size()) {
    // Whole suite: the shared suites are process-static, so alias.
    loops.reserve(base->size());
    for (std::size_t i = 0; i < base->size(); ++i) {
      loops.emplace_back(std::shared_ptr<const void>(), &(*base)[i]);
    }
  } else {
    *owned =
        std::make_shared<const workload::Suite>(workload::SuiteSlice(*base, n));
    loops.reserve((*owned)->size());
    for (std::size_t i = 0; i < (*owned)->size(); ++i) {
      loops.emplace_back(*owned, &(**owned)[i]);
    }
  }
  return loops;
}

std::string LoopLabel(const workload::Loop& loop, std::size_t index) {
  return loop.ddg.name().empty() ? "loop-" + std::to_string(index)
                                 : loop.ddg.name();
}

/// One memory replay of the post-batch phase, shared by every cell with
/// the same (batch request, loop.trip, loop.invocations). The request
/// fixes the graph, schedule, overrides and machine latencies; trip and
/// invocations are the rest of what ReplayLoop reads. The first cell with
/// the key lends its loop and machine.
struct ReplayJob {
  const workload::Loop* loop;
  const MachineConfig* machine;
  const core::ScheduleResult* result;
};

/// One report cell: its slot in data[plan].cells, where its inputs live,
/// and the replay it copies stall cycles from.
struct CellJob {
  std::size_t plan;
  std::size_t idx;
  std::size_t machine;
  std::size_t loop;
  std::size_t request;
  std::size_t replay;  ///< kNoReplay when the cell simulates no memory.
};

constexpr std::size_t kNoReplay = static_cast<std::size_t>(-1);

/// Computes every cell's LoopMetrics from the batch: each distinct memory
/// replay once, then every cell, both fanned out over the session's
/// workers. Each job writes only its own slot, so the result is
/// independent of the width.
std::vector<ExperimentData> CellMetrics(const std::vector<Plan>& plans,
                                        const service::BatchReport& batch,
                                        bool smoke,
                                        service::SchedulerService& session,
                                        ReproReport* report) {
  std::vector<ExperimentData> data(plans.size());
  std::vector<CellJob> cells;
  std::vector<ReplayJob> replays;
  std::map<std::tuple<std::size_t, long, long>, std::size_t> replay_of;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const Plan& plan = plans[p];
    const Experiment* def = plan.def;
    ExperimentData& d = data[p];
    d.def = def;
    d.smoke = smoke;
    d.loops.reserve(plan.loops.size());
    for (const auto& loop : plan.loops) d.loops.push_back(loop.get());
    d.cells.resize(plan.cell_request.size());
    const std::size_t per_machine = def->engines.size() * plan.loops.size();
    for (std::size_t idx = 0; idx < plan.cell_request.size(); ++idx) {
      CellJob cell;
      cell.plan = p;
      cell.idx = idx;
      cell.machine = idx / per_machine;
      cell.loop = idx % plan.loops.size();
      cell.request = plan.cell_request[idx];
      cell.replay = kNoReplay;
      const std::size_t engine = (idx % per_machine) / plan.loops.size();
      const core::ScheduleResult& sr = batch.items[cell.request].result;
      if (def->engines[engine].simulate_memory && sr.ok) {
        const workload::Loop& loop = *plan.loops[cell.loop];
        const auto [it, inserted] = replay_of.emplace(
            std::make_tuple(cell.request, loop.trip, loop.invocations),
            replays.size());
        if (inserted) {
          replays.push_back(
              {&loop, &def->machines[cell.machine].machine, &sr});
        }
        cell.replay = it->second;
        ++report->replayed_cells;
      }
      cells.push_back(cell);
    }
  }
  report->distinct_replays = static_cast<int>(replays.size());

  std::vector<long> stall_cycles(replays.size());
  session.ParallelFor(replays.size(), [&](std::size_t i) {
    const ReplayJob& job = replays[i];
    stall_cycles[i] =
        memsim::ReplayLoop(*job.loop, *job.result, *job.machine).stall_cycles;
  });

  // Metrics derive deterministically from the schedule (cache-served
  // results are bit-identical to fresh ones) and the replay, so a warm
  // run reproduces every cell exactly.
  session.ParallelFor(cells.size(), [&](std::size_t i) {
    const CellJob& cell = cells[i];
    const Plan& plan = plans[cell.plan];
    perf::LoopMetrics lm = perf::MetricsFromResult(
        *plan.loops[cell.loop], plan.def->machines[cell.machine].machine,
        batch.items[cell.request].result, /*simulate_memory=*/false);
    if (cell.replay != kNoReplay) lm.stall_cycles = stall_cycles[cell.replay];
    data[cell.plan].cells[cell.idx] = lm;
  });
  return data;
}

}  // namespace

int ReproReport::RefChecks() const {
  int n = 0;
  for (const ExperimentResult& e : experiments) {
    n += static_cast<int>(e.refs.size());
  }
  return n;
}

int ReproReport::RefPasses() const {
  // Enforced passes only: non-enforced (n/a) refs are their own bucket,
  // so pass + fail + n/a partitions RefChecks().
  int n = 0;
  for (const ExperimentResult& e : experiments) {
    for (const RefCheck& c : e.refs) {
      if (c.enforced && c.passed) ++n;
    }
  }
  return n;
}

ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt,
                           service::SchedulerService& session) {
  std::vector<const Experiment*> sel = selection;
  if (sel.empty()) {
    for (const Experiment& e : Registry()) sel.push_back(&e);
  }

  // Expand every scheduling cell of every experiment into one flat batch,
  // deduplicated by schedule-cache key (identical (loop, machine, options,
  // overrides) cells — within or across experiments — schedule once).
  std::vector<Plan> plans;
  std::vector<service::BatchRequest> requests;
  std::unordered_map<std::string, std::size_t> dedup;
  for (const Experiment* def : sel) {
    Plan plan;
    plan.def = def;
    plan.loops = ResolveWorkload(def->workload, opt.smoke, &plan.owned);
    plan.cell_request.reserve(def->CellsPerLoop() * plan.loops.size());
    for (const MachineVariant& mv : def->machines) {
      for (const EngineVariant& ev : def->engines) {
        for (std::size_t l = 0; l < plan.loops.size(); ++l) {
          const std::shared_ptr<const workload::Loop>& loop = plan.loops[l];
          service::BatchRequest req;
          req.id = def->name + "/" + mv.label + "/" + ev.label + "/" +
                   LoopLabel(*loop, l);
          req.loop = loop;
          req.machine = mv.machine;
          req.options = ev.options;
          if (ev.prefetch != memsim::PrefetchMode::kNone) {
            req.overrides = memsim::ClassifyBindingPrefetch(
                loop->ddg, mv.machine, loop->trip, ev.prefetch);
          }
          const std::string key =
              service::MakeCacheKey(loop->ddg, req.machine, req.options,
                                    req.overrides)
                  .Hex();
          const auto [it, inserted] = dedup.emplace(key, requests.size());
          if (inserted) requests.push_back(std::move(req));
          plan.cell_request.push_back(it->second);
        }
      }
    }
    plans.push_back(std::move(plan));
  }

  service::BatchReport batch;
  if (!requests.empty()) batch = session.RunBatch(requests);

  ReproReport report;
  report.smoke = opt.smoke;
  report.cache = batch.cache;
  report.requests = static_cast<int>(requests.size());
  report.scheduled = batch.scheduled;
  report.hits = batch.hits;
  report.seconds = batch.seconds;
  report.timing = batch.timing;

  const auto metrics_t0 = std::chrono::steady_clock::now();
  obs::TraceSpan metrics_span("experiment", "metrics");
  const std::vector<ExperimentData> metrics =
      CellMetrics(plans, batch, opt.smoke, session, &report);

  // Failure notes, aggregation and reference joins: serial, registry order.
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const Plan& plan = plans[p];
    const Experiment* def = plan.def;
    const ExperimentData& data = metrics[p];
    ExperimentResult res;
    res.name = def->name;
    res.title = def->title;
    res.num_loops = plan.loops.size();
    res.cells = static_cast<int>(data.cells.size());
    for (const perf::LoopMetrics& lm : data.cells) {
      if (!lm.ok) ++res.cells_failed;
    }
    // Per-(machine, engine) failure accounting: every engine's failures
    // are counted and reported — never only one side of a comparison.
    for (std::size_t m = 0; m < def->machines.size(); ++m) {
      for (std::size_t e = 0; e < def->engines.size(); ++e) {
        int failed = 0;
        for (std::size_t l = 0; l < plan.loops.size(); ++l) {
          if (!data.At(m, e, l).ok) ++failed;
        }
        if (failed > 0) {
          res.failure_notes.push_back(
              def->machines[m].label + "/" + def->engines[e].label + ": " +
              std::to_string(failed) + " of " +
              std::to_string(plan.loops.size()) + " loops failed");
        }
      }
    }

    res.rows = def->aggregate != nullptr ? def->aggregate(data)
                                         : std::vector<MetricValue>{};

    std::map<std::pair<std::string, std::string>, double> row_values;
    for (const MetricValue& mv : res.rows) {
      row_values[{mv.row, mv.metric}] = mv.value;
    }
    for (const PaperRef* ref : RefsFor(def->name)) {
      RefCheck c;
      c.ref = ref;
      const auto it = row_values.find({ref->row, ref->metric});
      c.found = it != row_values.end();
      if (!c.found) {
        // A reference with no matching report row is a registry bug, not
        // a tolerance question: always enforced, always a failure.
        c.enforced = true;
        c.passed = false;
        c.verdict = "missing";
      } else {
        c.measured = it->second;
        c.delta = c.measured - ref->paper;
        c.passed = ref->Pass(c.measured);
        c.enforced = !(opt.smoke && ref->workload_dependent);
        c.verdict = !c.enforced ? "n/a" : (c.passed ? "pass" : "FAIL");
      }
      if (c.enforced && !c.passed) ++report.ref_failures;
      res.refs.push_back(std::move(c));
    }
    report.experiments.push_back(std::move(res));
  }
  report.metrics_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - metrics_t0)
                               .count();
  return report;
}

ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt) {
  service::ServiceConfig config;
  config.cache_dir = opt.cache_dir;
  config.cache_mem_entries = opt.cache_mem_entries;
  config.cache_mem_bytes = opt.cache_mem_bytes;
  config.threads = opt.threads;
  service::SchedulerService session(config);
  ReproReport report = RunExperiments(selection, opt, session);
  session.Drain();
  if (session.has_cache()) report.cache = session.tier_stats();
  return report;
}

std::string ReproCsv(const ReproReport& report) {
  std::string out = "experiment,row,metric,value,paper,delta,verdict\n";
  for (const ExperimentResult& e : report.experiments) {
    std::map<std::pair<std::string, std::string>, const RefCheck*> by_cell;
    for (const RefCheck& c : e.refs) {
      if (c.found) by_cell[{c.ref->row, c.ref->metric}] = &c;
    }
    for (const MetricValue& mv : e.rows) {
      out += e.name + "," + mv.row + "," + mv.metric + "," + Fmt(mv.value);
      const auto it = by_cell.find({mv.row, mv.metric});
      if (it != by_cell.end()) {
        const RefCheck& c = *it->second;
        out += "," + Fmt(c.ref->paper) + "," + FmtDelta(c.delta) + "," +
               c.verdict;
      } else {
        out += ",,,";
      }
      out += "\n";
    }
    for (const RefCheck& c : e.refs) {
      if (!c.found) {
        out += e.name + "," + c.ref->row + "," + c.ref->metric + ",," +
               Fmt(c.ref->paper) + ",,missing\n";
      }
    }
  }
  return out;
}

std::string ReproMarkdown(const ReproReport& report) {
  std::string out = "# Paper reproduction: conf_ipps_ZalameaLAV03\n\n";
  if (report.smoke) {
    out += "Smoke mode: bounded workload slices; workload-dependent "
           "reference values are reported as n/a.\n\n";
  }

  int pass = 0, fail = 0, na = 0;
  for (const ExperimentResult& e : report.experiments) {
    for (const RefCheck& c : e.refs) {
      if (c.verdict == "n/a") {
        ++na;
      } else if (c.found && c.passed) {
        ++pass;
      } else {
        ++fail;
      }
    }
  }
  out += std::to_string(report.experiments.size()) + " experiments, " +
         std::to_string(pass + fail + na) + " reference values: " +
         std::to_string(pass) + " pass, " + std::to_string(fail) +
         " fail, " + std::to_string(na) + " n/a.\n\n";

  out += "| experiment | loops | cells | failed cells | refs | pass | fail "
         "| n/a |\n|---|---|---|---|---|---|---|---|\n";
  for (const ExperimentResult& e : report.experiments) {
    int ep = 0, ef = 0, en = 0;
    for (const RefCheck& c : e.refs) {
      if (c.verdict == "n/a") {
        ++en;
      } else if (c.found && c.passed) {
        ++ep;
      } else {
        ++ef;
      }
    }
    out += "| " + e.name + " | " + std::to_string(e.num_loops) + " | " +
           std::to_string(e.cells) + " | " + std::to_string(e.cells_failed) +
           " | " + std::to_string(e.refs.size()) + " | " +
           std::to_string(ep) + " | " + std::to_string(ef) + " | " +
           std::to_string(en) + " |\n";
  }

  for (const ExperimentResult& e : report.experiments) {
    out += "\n## " + e.name + " — " + e.title + "\n\n";
    if (!e.failure_notes.empty()) {
      out += "Scheduling failures (failures are experiment data; rows are "
             "never dropped silently):\n";
      for (const std::string& note : e.failure_notes) {
        out += "* " + note + "\n";
      }
      out += "\n";
    }
    std::map<std::pair<std::string, std::string>, const RefCheck*> by_cell;
    for (const RefCheck& c : e.refs) {
      if (c.found) by_cell[{c.ref->row, c.ref->metric}] = &c;
    }
    out += "| row | metric | measured | paper | delta | verdict |\n"
           "|---|---|---|---|---|---|\n";
    for (const MetricValue& mv : e.rows) {
      out += "| " + mv.row + " | " + mv.metric + " | " + Fmt(mv.value);
      const auto it = by_cell.find({mv.row, mv.metric});
      if (it != by_cell.end()) {
        const RefCheck& c = *it->second;
        out += " | " + Fmt(c.ref->paper) + " | " + FmtDelta(c.delta) +
               " | " + c.verdict + " |\n";
      } else {
        out += " | - | - | - |\n";
      }
    }
    for (const RefCheck& c : e.refs) {
      if (!c.found) {
        out += "| " + c.ref->row + " | " + c.ref->metric + " | - | " +
               Fmt(c.ref->paper) + " | - | missing |\n";
      }
    }
  }
  return out;
}

}  // namespace hcrf::experiment
