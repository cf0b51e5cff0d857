#include "experiment/run.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
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

/// Per-experiment expansion plan: the resolved workload the batch
/// requests alias.
struct Plan {
  const Experiment* def = nullptr;
  std::shared_ptr<const workload::Suite> owned;  ///< Slice storage.
  std::vector<std::shared_ptr<const workload::Loop>> loops;
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

constexpr std::size_t kNoReplay = static_cast<std::size_t>(-1);

/// One report cell a batch request feeds: its slot in data[plan].cells,
/// where its loop and machine live, and the request replay its stall
/// cycles come from.
struct CellRef {
  std::size_t plan;
  std::size_t idx;
  std::size_t machine;
  std::size_t loop;
  std::size_t replay;  ///< kNoReplay when the cell simulates no memory.
};

/// One memory replay, shared by every cell of the request with the same
/// (loop.trip, loop.invocations). The request fixes the graph, schedule,
/// overrides and machine latencies; trip and invocations are the rest of
/// what ReplayLoop reads. The first cell with the pair lends its loop and
/// machine.
struct ReplayRef {
  const workload::Loop* loop;
  const MachineConfig* machine;
};

/// One cell's prefetch overrides and schedule-cache key, computed on the
/// session's lanes ahead of the serial dedup.
struct CellKey {
  sched::LatencyOverrides overrides;
  service::CacheKey key;
};

/// What the lane that completes one deduplicated request does with its
/// result before dropping it.
struct RequestWork {
  std::vector<CellRef> cells;
  std::vector<ReplayRef> replays;
  int replayed_cells = 0;       ///< Cells with a replay.
  double replay_seconds = 0.0;  ///< Written by the lane, as are:
  long replay_accesses = 0;
  long replay_misses = 0;
};

/// Runs the request's replays and writes every cell it feeds. Metrics
/// derive deterministically from the schedule (cache-served results are
/// bit-identical to fresh ones) and the replay, and each cell has one
/// slot, so the cells are independent of the lane and the width.
void WriteCells(const core::ScheduleResult& sr, RequestWork& work,
                std::vector<ExperimentData>& data) {
  std::vector<long> stall_cycles;
  if (sr.ok && !work.replays.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    stall_cycles.reserve(work.replays.size());
    for (const ReplayRef& r : work.replays) {
      const memsim::ReplayResult rr =
          memsim::ReplayLoop(*r.loop, sr, *r.machine);
      stall_cycles.push_back(rr.stall_cycles);
      work.replay_accesses += rr.accesses;
      work.replay_misses += rr.misses;
    }
    work.replay_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  }
  for (const CellRef& cell : work.cells) {
    ExperimentData& d = data[cell.plan];
    perf::LoopMetrics lm = perf::MetricsFromResult(
        *d.loops[cell.loop], d.def->machines[cell.machine].machine, sr,
        /*simulate_memory=*/false);
    if (sr.ok && cell.replay != kNoReplay) {
      lm.stall_cycles = stall_cycles[cell.replay];
    }
    d.cells[cell.idx] = lm;
  }
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
  // overrides) cells — within or across experiments — schedule once). Each
  // request carries the cells it feeds and their distinct memory replays.
  std::vector<Plan> plans(sel.size());
  std::size_t num_cells = 0;
  for (std::size_t p = 0; p < sel.size(); ++p) {
    plans[p].def = sel[p];
    plans[p].loops =
        ResolveWorkload(sel[p]->workload, opt.smoke, &plans[p].owned);
    num_cells += sel[p]->CellsPerLoop() * plans[p].loops.size();
  }
  std::vector<ExperimentData> metrics(sel.size());
  std::vector<service::BatchRequest> requests;
  std::vector<RequestWork> work;
  std::unordered_map<service::CacheKey, std::size_t, service::CacheKeyHash>
      dedup;
  std::vector<CellKey> keys;  // the current plan's
  requests.reserve(num_cells);
  work.reserve(num_cells);
  dedup.reserve(num_cells);
  for (std::size_t p = 0; p < sel.size(); ++p) {
    const Experiment* def = sel[p];
    const Plan& plan = plans[p];
    ExperimentData& d = metrics[p];
    d.def = def;
    d.smoke = opt.smoke;
    d.loops.reserve(plan.loops.size());
    for (const auto& loop : plan.loops) d.loops.push_back(loop.get());
    d.cells.resize(def->CellsPerLoop() * plan.loops.size());
    // Overrides and keys are pure functions of the cell's loop, machine
    // and engine: compute the plan's on the session's lanes, indexed like
    // d.cells, so the serial dedup below only consumes them.
    keys.assign(d.cells.size(), {});
    session.ParallelFor(keys.size(), [&](std::size_t c) {
      const std::size_t row = c / plan.loops.size();
      const MachineVariant& mv = def->machines[row / def->engines.size()];
      const EngineVariant& ev = def->engines[row % def->engines.size()];
      const workload::Loop& loop = *plan.loops[c % plan.loops.size()];
      CellKey& k = keys[c];
      if (ev.prefetch != memsim::PrefetchMode::kNone) {
        k.overrides = memsim::ClassifyBindingPrefetch(
            loop.ddg, mv.machine, loop.trip, ev.prefetch);
      }
      k.key = service::MakeCacheKey(loop.ddg, mv.machine, ev.options,
                                    k.overrides);
    });
    std::size_t idx = 0;
    for (std::size_t m = 0; m < def->machines.size(); ++m) {
      const MachineVariant& mv = def->machines[m];
      for (const EngineVariant& ev : def->engines) {
        for (std::size_t l = 0; l < plan.loops.size(); ++l, ++idx) {
          const workload::Loop& loop = *plan.loops[l];
          CellKey& k = keys[idx];
          const auto [it, inserted] = dedup.emplace(k.key, requests.size());
          if (inserted) {
            service::BatchRequest req;
            req.id = def->name + "/" + mv.label + "/" + ev.label + "/" +
                     LoopLabel(loop, l);
            req.loop = plan.loops[l];
            req.machine = mv.machine;
            req.options = ev.options;
            req.overrides = std::move(k.overrides);
            requests.push_back(std::move(req));
            work.emplace_back();
          }
          RequestWork& w = work[it->second];
          CellRef cell{p, idx, m, l, kNoReplay};
          if (ev.simulate_memory) {
            std::size_t r = 0;
            while (r < w.replays.size() &&
                   (w.replays[r].loop->trip != loop.trip ||
                    w.replays[r].loop->invocations != loop.invocations)) {
              ++r;
            }
            if (r == w.replays.size()) {
              w.replays.push_back({&loop, &mv.machine});
            }
            cell.replay = r;
            ++w.replayed_cells;
          }
          w.cells.push_back(cell);
        }
      }
    }
  }

  // One streamed pass: the lane that completes a request (scheduled, cache
  // hit or failed) writes its cells and drops the result, so its
  // transformed graph is freed there and then, not held for the batch.
  service::BatchReport batch;
  if (!requests.empty()) {
    batch = session.RunBatch(
        requests, [&](std::size_t r, service::BatchItem& item) {
          const core::ScheduleResult sr = std::move(item.result);
          WriteCells(sr, work[r], metrics);
        });
  }

  ReproReport report;
  report.smoke = opt.smoke;
  report.cache = batch.cache;
  report.requests = static_cast<int>(requests.size());
  report.scheduled = batch.scheduled;
  report.hits = batch.hits;
  report.seconds = batch.seconds;
  report.timing = batch.timing;

  const auto aggregate_t0 = std::chrono::steady_clock::now();
  obs::TraceSpan aggregate_span("experiment", "aggregate");
  for (std::size_t r = 0; r < work.size(); ++r) {
    report.replay_seconds += work[r].replay_seconds;
    report.replay_accesses += work[r].replay_accesses;
    report.replay_misses += work[r].replay_misses;
    if (batch.items[r].ok) {
      report.replayed_cells += work[r].replayed_cells;
      report.distinct_replays += static_cast<int>(work[r].replays.size());
    }
  }

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
                               std::chrono::steady_clock::now() - aggregate_t0)
                               .count();
  return report;
}

ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt) {
  service::ServiceConfig config;
  config.threads = opt.threads;
  service::SchedulerService session(config);
  return RunExperiments(selection, opt, session);
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
