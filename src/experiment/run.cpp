#include "experiment/run.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/check.h"
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

/// Points `loops` at the experiment's workload. Returns the storage of a
/// slice; a whole shared suite is process-static and needs none.
std::shared_ptr<const workload::Suite> ResolveWorkload(
    const WorkloadSpec& spec, bool smoke,
    std::vector<const workload::Loop*>& loops) {
  if (spec.suite.empty()) return nullptr;
  const workload::Suite* suite = workload::SharedSuiteByName(spec.suite);
  if (suite == nullptr) {
    throw std::runtime_error("experiment references unknown suite '" +
                             spec.suite + "'");
  }
  std::size_t n = smoke ? spec.smoke_slice : spec.slice;
  if (smoke && spec.slice != 0 && spec.slice < n) n = spec.slice;
  std::shared_ptr<const workload::Suite> owned;
  if (n != 0 && n < suite->size()) {
    owned = std::make_shared<const workload::Suite>(
        workload::SuiteSlice(*suite, n));
    suite = owned.get();
  }
  for (std::size_t i = 0; i < suite->size(); ++i) loops.push_back(&(*suite)[i]);
  return owned;
}

std::string LoopLabel(const workload::Loop& loop, std::size_t index) {
  return loop.ddg.name().empty() ? "loop-" + std::to_string(index)
                                 : loop.ddg.name();
}

/// Every scheduling cell of the selection, numbered in registry order
/// (experiment, then machine, engine and loop, as ExperimentData::At
/// indexes them), and the deduplicated requests over them: request r feeds
/// cells[first[r]] .. cells[first[r + 1] - 1], in ascending order.
struct Grid {
  struct Cell {
    std::size_t exp, idx, loop;  ///< idx: the slot in data[exp].cells.
    const MachineVariant* machine;
    const EngineVariant* engine;
  };

  std::vector<ExperimentData> data;
  std::vector<std::shared_ptr<const workload::Suite>> owned;  ///< Slices.
  std::vector<std::size_t> exp_first{0};  ///< Then the cell count.
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> cells;

  Cell Locate(std::size_t g) const {
    const auto e = static_cast<std::size_t>(
        std::upper_bound(exp_first.begin(), exp_first.end(), g) -
        exp_first.begin() - 1);
    const Experiment& def = *data[e].def;
    const std::size_t idx = g - exp_first[e];
    const std::size_t row = idx / data[e].loops.size();
    return {e, idx, idx % data[e].loops.size(),
            &def.machines[row / def.engines.size()],
            &def.engines[row % def.engines.size()]};
  }
  const workload::Loop& LoopOf(const Cell& c) const {
    return *data[c.exp].loops[c.loop];
  }
};

/// The cell's binding-prefetch overrides (none without a prefetch policy).
sched::LatencyOverrides Overrides(const workload::Loop& loop,
                                  const Grid::Cell& c) {
  if (c.engine->prefetch == memsim::PrefetchMode::kNone) return {};
  return memsim::ClassifyBindingPrefetch(loop.ddg, c.machine->machine,
                                         loop.trip, c.engine->prefetch);
}

/// Writes every cell request r feeds, on the lane that completed it, and
/// replays memory for those that simulate it; the replay counts go into
/// `report` atomically. Metrics derive deterministically from the schedule
/// (cache-served results are bit-identical to fresh ones) and the replay,
/// and each cell has one slot, so the cells are independent of the lane
/// and the width.
void WriteCells(const core::ScheduleResult& sr, std::size_t r, Grid& grid,
                ReproReport& report) {
  static const auto kReplay = obs::PhaseName::Timed("experiment", "replay");
  // One replay per distinct (loop.trip, loop.invocations): the request
  // fixes the graph, schedule, overrides and machine latencies, and trip
  // and invocations are the rest of what ReplayLoop reads. The cells are
  // walked in ascending order, so the first cell with the pair lends its
  // loop and machine.
  struct Replay {
    const workload::Loop* loop;
    long stall_cycles;
  };
  std::vector<Replay> replays;
  int replayed_cells = 0;
  double seconds = 0.0;
  for (std::uint32_t i = grid.first[r]; i < grid.first[r + 1]; ++i) {
    const Grid::Cell c = grid.Locate(grid.cells[i]);
    const workload::Loop& loop = grid.LoopOf(c);
    perf::LoopMetrics lm = perf::MetricsFromResult(loop, sr);
    if (sr.ok && c.engine->simulate_memory) {
      auto it = std::find_if(
          replays.begin(), replays.end(), [&](const Replay& rp) {
            return rp.loop->trip == loop.trip &&
                   rp.loop->invocations == loop.invocations;
          });
      if (it == replays.end()) {
        const obs::Phase replay_phase(kReplay, seconds);
        const memsim::ReplayResult rr =
            memsim::ReplayLoop(loop, sr, c.machine->machine);
        std::atomic_ref(report.replay_accesses) += rr.accesses;
        std::atomic_ref(report.replay_misses) += rr.misses;
        std::atomic_ref(report.replay_simulated) += rr.simulated;
        it = replays.insert(it, {&loop, rr.stall_cycles});
      }
      lm.stall_cycles = it->stall_cycles;
      ++replayed_cells;
    }
    grid.data[c.exp].cells[c.idx] = lm;
  }
  std::atomic_ref(report.replay_seconds) += seconds;
  std::atomic_ref(report.replayed_cells) += replayed_cells;
  std::atomic_ref(report.distinct_replays) += static_cast<int>(replays.size());
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

  // Number every scheduling cell of every experiment, then deduplicate
  // them by schedule-cache key: identical (loop, machine, options,
  // overrides) cells, within or across experiments, schedule once.
  Grid grid;
  grid.data.resize(sel.size());
  for (std::size_t e = 0; e < sel.size(); ++e) {
    ExperimentData& d = grid.data[e];
    d.def = sel[e];
    d.smoke = opt.smoke;
    grid.owned.push_back(ResolveWorkload(d.def->workload, opt.smoke, d.loops));
    d.cells.resize(d.def->CellsPerLoop() * d.loops.size());
    grid.exp_first.push_back(grid.exp_first.back() + d.cells.size());
  }
  const std::size_t num_cells = grid.exp_first.back();
  HCRF_CHECK(num_cells <= std::numeric_limits<std::uint32_t>::max(),
             "repro grid exceeds 2^32 cells");
  {
    std::unordered_map<service::CacheKey, std::uint32_t,
                       service::CacheKeyHash>
        dedup;
    std::vector<std::uint32_t> request_of(num_cells);
    std::vector<service::CacheKey> keys;  // the current experiment's
    dedup.reserve(num_cells);
    for (std::size_t e = 0; e < sel.size(); ++e) {
      // Overrides and keys are pure functions of the cell's loop, machine
      // and engine: compute the experiment's on the session's lanes, so
      // the serial dedup below only consumes them.
      const std::size_t base = grid.exp_first[e];
      keys.assign(grid.data[e].cells.size(), {});
      session.ParallelFor(keys.size(), [&](std::size_t c) {
        const Grid::Cell cell = grid.Locate(base + c);
        const workload::Loop& loop = grid.LoopOf(cell);
        keys[c] = service::MakeCacheKey(loop.ddg, cell.machine->machine,
                                        cell.engine->options,
                                        Overrides(loop, cell));
      });
      for (std::size_t c = 0; c < keys.size(); ++c) {
        const auto next = static_cast<std::uint32_t>(dedup.size());
        request_of[base + c] = dedup.emplace(keys[c], next).first->second;
      }
    }
    // Group the cells by request with a counting sort: first[r] starts as
    // the end of r's run and steps back once per cell, placed from the
    // last cell down, so each run ends ascending and first[r] at its start.
    // The map and the keys go with this scope.
    grid.first.assign(dedup.size() + 1, 0);
    for (const std::uint32_t r : request_of) ++grid.first[r];
    std::partial_sum(grid.first.begin(), grid.first.end(), grid.first.begin());
    grid.cells.resize(num_cells);
    for (std::size_t g = num_cells; g-- > 0;) {
      grid.cells[--grid.first[request_of[g]]] = static_cast<std::uint32_t>(g);
    }
  }

  // One streamed pass. The lane that runs request r builds it from its
  // first cell: that cell's loop, machine, engine options and overrides,
  // which every cell of the request shares by key. Once the request
  // completes (scheduled, cache hit or failed) the lane writes its cells.
  // Request and item, with its transformed graph, are freed on the lane,
  // so the batch holds no per-request state.
  ReproReport report;
  report.smoke = opt.smoke;
  report.requests = static_cast<int>(grid.first.size() - 1);
  service::BatchReport batch;
  if (report.requests > 0) {
    batch = session.RunBatch(
        grid.first.size() - 1,
        [&](std::size_t r, std::optional<service::BatchRequest>& scratch)
            -> const service::BatchRequest& {
          const Grid::Cell c = grid.Locate(grid.cells[grid.first[r]]);
          const workload::Loop& loop = grid.LoopOf(c);
          service::BatchRequest& req = scratch.emplace();
          req.id = grid.data[c.exp].def->name + "/" + c.machine->label + "/" +
                   c.engine->label + "/" + LoopLabel(loop, c.loop);
          req.loop = std::shared_ptr<const workload::Loop>(grid.owned[c.exp],
                                                           &loop);
          req.machine = c.machine->machine;
          req.options = c.engine->options;
          req.overrides = Overrides(loop, c);
          return req;
        },
        [&](std::size_t r, service::BatchItem& item) {
          WriteCells(item.result, r, grid, report);
        });
  }
  report.cache = batch.cache;
  report.scheduled = batch.scheduled;
  report.hits = batch.hits;
  report.seconds = batch.seconds;
  report.timing = batch.timing;

  static const auto kAggregate =
      obs::PhaseName::Timed("experiment", "aggregate");
  {
    const obs::Phase aggregate_phase(kAggregate, report.metrics_seconds);
    // Failure notes, aggregation and reference joins: serial, registry order.
    for (const ExperimentData& data : grid.data) {
      const Experiment* def = data.def;
      ExperimentResult res;
      res.name = def->name;
      res.title = def->title;
      res.num_loops = data.loops.size();
      res.cells = static_cast<int>(data.cells.size());
      for (const perf::LoopMetrics& lm : data.cells) {
        if (!lm.ok) ++res.cells_failed;
      }
      // Per-(machine, engine) failure accounting: every engine's failures
      // are counted and reported — never only one side of a comparison.
      for (std::size_t m = 0; m < def->machines.size(); ++m) {
        for (std::size_t e = 0; e < def->engines.size(); ++e) {
          int failed = 0;
          for (std::size_t l = 0; l < data.loops.size(); ++l) {
            if (!data.At(m, e, l).ok) ++failed;
          }
          if (failed > 0) {
            res.failure_notes.push_back(
                def->machines[m].label + "/" + def->engines[e].label + ": " +
                std::to_string(failed) + " of " +
                std::to_string(data.loops.size()) + " loops failed");
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
  }
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
