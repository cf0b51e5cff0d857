// The experiment registry and runner: every registered experiment expands
// to a valid grid, the paper-reference table anchors real experiments and
// its tolerance checks pass and fail correctly, a --smoke run goes through
// the persistent cache cold-then-warm with bit-identical reports, and
// binding-prefetch overrides are keyed into the batch service's cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "experiment/experiment.h"
#include "experiment/paper_ref.h"
#include "experiment/run.h"
#include "memsim/prefetch.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/kernels.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;
using experiment::Experiment;
using experiment::FindExperiment;
using experiment::PaperRef;
using experiment::PaperRefs;
using experiment::RefsFor;
using experiment::Registry;
using experiment::ReproCsv;
using experiment::ReproMarkdown;
using experiment::ReproOptions;
using experiment::ReproReport;
using experiment::RunExperiments;

std::string FreshDir(const std::string& stem) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / (stem + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

TEST(ExperimentRegistry, ThirteenExperimentsWithValidGrids) {
  const std::vector<Experiment>& reg = Registry();
  EXPECT_EQ(reg.size(), 13u);

  std::set<std::string> names;
  for (const Experiment& e : reg) {
    SCOPED_TRACE(e.name);
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate experiment name";
    EXPECT_FALSE(e.title.empty());
    ASSERT_NE(e.aggregate, nullptr);

    if (e.workload.suite.empty()) {
      // Hardware-model-only experiments (tables 2 and 5) schedule nothing.
      EXPECT_EQ(e.CellsPerLoop(), 0u);
      continue;
    }
    EXPECT_NE(workload::SharedSuiteByName(e.workload.suite), nullptr);
    EXPECT_GT(e.workload.smoke_slice, 0u);
    ASSERT_FALSE(e.machines.empty());
    ASSERT_FALSE(e.engines.empty());
    std::set<std::string> labels;
    for (const experiment::MachineVariant& mv : e.machines) {
      SCOPED_TRACE(mv.label);
      EXPECT_TRUE(labels.insert(mv.label).second) << "duplicate machine";
      std::string why;
      EXPECT_TRUE(mv.machine.IsValid(&why)) << why;
    }
    std::set<std::string> engine_labels;
    for (const experiment::EngineVariant& ev : e.engines) {
      EXPECT_TRUE(engine_labels.insert(ev.label).second)
          << "duplicate engine label " << ev.label;
    }
  }
  EXPECT_NE(FindExperiment("table4"), nullptr);
  EXPECT_EQ(FindExperiment("nope"), nullptr);
}

TEST(ExperimentRegistry, PaperRefsAnchorRegisteredExperiments) {
  EXPECT_FALSE(PaperRefs().empty());
  for (const PaperRef& r : PaperRefs()) {
    SCOPED_TRACE(r.experiment + "/" + r.row + "/" + r.metric);
    EXPECT_NE(FindExperiment(r.experiment), nullptr);
    EXPECT_GE(r.tol_abs, 0.0);
    EXPECT_GE(r.tol_rel, 0.0);
    EXPECT_GT(r.tol_abs + r.tol_rel, 0.0) << "ref with no tolerance band";
  }
  // Every experiment with anchors resolves through RefsFor.
  EXPECT_FALSE(RefsFor("table4").empty());
  EXPECT_FALSE(RefsFor("table5").empty());
  EXPECT_TRUE(RefsFor("ablation_budget").empty());  // unpublished knob
}

TEST(ExperimentRegistry, ToleranceChecksPassAndFail) {
  PaperRef abs;
  abs.paper = 100.0;
  abs.tol_abs = 5.0;
  EXPECT_TRUE(abs.Pass(100.0));
  EXPECT_TRUE(abs.Pass(104.9));
  EXPECT_TRUE(abs.Pass(95.1));
  EXPECT_FALSE(abs.Pass(105.2));  // out of band high
  EXPECT_FALSE(abs.Pass(94.8));   // out of band low

  PaperRef rel;
  rel.paper = -40.0;
  rel.tol_rel = 0.25;  // band: +/- 10
  EXPECT_TRUE(rel.Pass(-40.0));
  EXPECT_TRUE(rel.Pass(-30.5));
  EXPECT_FALSE(rel.Pass(-29.0));
  EXPECT_FALSE(rel.Pass(-51.0));

  PaperRef both;
  both.paper = 10.0;
  both.tol_abs = 1.0;
  both.tol_rel = 0.1;  // band: +/- 2
  EXPECT_TRUE(both.Pass(12.0));
  EXPECT_FALSE(both.Pass(12.1));
}

// The hardware-model experiments are workload-independent: every one of
// their reference values must be found, enforced and in tolerance in both
// full and smoke modes (they gate CI).
TEST(ExperimentRun, HardwareModelRefsAllPass) {
  ReproOptions opt;
  opt.smoke = true;
  const ReproReport report = RunExperiments(
      {FindExperiment("table2"), FindExperiment("table5")}, opt);
  ASSERT_EQ(report.experiments.size(), 2u);
  EXPECT_EQ(report.requests, 0);  // nothing scheduled
  EXPECT_EQ(report.ref_failures, 0);
  int checked = 0;
  for (const experiment::ExperimentResult& e : report.experiments) {
    EXPECT_FALSE(e.rows.empty());
    for (const experiment::RefCheck& c : e.refs) {
      EXPECT_TRUE(c.found) << c.ref->row << "/" << c.ref->metric;
      EXPECT_TRUE(c.enforced);
      EXPECT_TRUE(c.passed)
          << c.ref->row << "/" << c.ref->metric << ": measured "
          << c.measured << " vs paper " << c.ref->paper;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);  // both Table 5 modes are anchored
}

// The acceptance path: a smoke run of scheduling experiments against a
// fresh cache, then a warm rerun — fully cache-served, byte-identical
// CSV/markdown, nonzero hit count.
TEST(ExperimentRun, SmokeColdThenWarmIsBitIdentical) {
  const std::string cache = FreshDir("hcrf-exp-cache-");
  ReproOptions opt;
  opt.smoke = true;
  service::ServiceConfig config;
  config.cache_dir = cache;
  const std::vector<const Experiment*> sel = {
      FindExperiment("table4"), FindExperiment("fig4"),
      FindExperiment("ablation_budget")};

  // Each leg on its own session over the same directory, as two CLI runs.
  const auto run = [&] {
    service::SchedulerService session(config);
    return RunExperiments(sel, opt, session);
  };
  const ReproReport cold = run();
  EXPECT_GT(cold.requests, 0);
  EXPECT_EQ(cold.hits, 0);
  EXPECT_EQ(cold.scheduled, cold.requests);

  const ReproReport warm = run();
  EXPECT_EQ(warm.scheduled, 0);
  EXPECT_EQ(warm.hits, warm.requests);
  EXPECT_EQ(warm.requests, cold.requests);

  EXPECT_EQ(ReproCsv(cold), ReproCsv(warm));
  EXPECT_EQ(ReproMarkdown(cold), ReproMarkdown(warm));

  // Smoke bounds the workload and reports workload-dependent refs as n/a.
  for (const experiment::ExperimentResult& e : cold.experiments) {
    const Experiment* def = FindExperiment(e.name);
    EXPECT_LE(e.num_loops, def->workload.smoke_slice);
    for (const experiment::RefCheck& c : e.refs) {
      if (c.ref->workload_dependent) {
        EXPECT_EQ(c.verdict, "n/a");
        EXPECT_FALSE(c.enforced);
      }
    }
  }
  fs::remove_all(cache);
}

// Each request's memory replays and cell metrics run on the batch lane
// that completes it, and each distinct (request, trip, invocations) is
// replayed once: a serial and a 4-wide run of the memory-replay
// experiments must render byte-identical reports and count the same
// cells. fig6's selective cells on S64, 4C32/1-1 and 4C32S16/1-1 are also
// ablation_prefetch cells, so some replays are shared.
TEST(ExperimentRun, MetricsFanOutIsWidthIndependent) {
  const std::vector<const Experiment*> sel = {
      FindExperiment("fig6"), FindExperiment("ablation_prefetch")};
  ReproOptions opt;
  opt.smoke = true;
  opt.threads = 1;
  const ReproReport serial = RunExperiments(sel, opt);
  opt.threads = 4;
  const ReproReport wide = RunExperiments(sel, opt);

  EXPECT_EQ(ReproCsv(serial), ReproCsv(wide));
  EXPECT_EQ(ReproMarkdown(serial), ReproMarkdown(wide));
  ASSERT_EQ(serial.experiments.size(), wide.experiments.size());
  for (std::size_t i = 0; i < serial.experiments.size(); ++i) {
    const experiment::ExperimentResult& a = serial.experiments[i];
    const experiment::ExperimentResult& b = wide.experiments[i];
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_loops, b.num_loops);
    EXPECT_EQ(a.cells, b.cells);
    EXPECT_EQ(a.cells_failed, b.cells_failed);
    EXPECT_EQ(a.failure_notes, b.failure_notes);
  }
  EXPECT_GT(serial.replayed_cells, serial.distinct_replays);
  EXPECT_GT(serial.distinct_replays, 0);
  EXPECT_EQ(serial.replayed_cells, wide.replayed_cells);
  EXPECT_EQ(serial.distinct_replays, wide.distinct_replays);
}

// Table 4's comparison must account for failures per engine, explicitly:
// the experiment emits a "failures" row (noniter_only / mirs_only / both /
// compared) and the compared count plus every failure class partitions
// the workload — no silently dropped rows.
TEST(ExperimentRun, ComparisonReportsPerEngineFailures) {
  ReproOptions opt;
  opt.smoke = false;  // slice below keeps this cheap
  const Experiment* table4 = FindExperiment("table4");
  ASSERT_NE(table4, nullptr);
  Experiment sliced = *table4;  // value copy; run on a bounded slice
  sliced.workload.slice = 64;
  const ReproReport report = RunExperiments({&sliced}, opt);
  ASSERT_EQ(report.experiments.size(), 1u);
  const experiment::ExperimentResult& res = report.experiments[0];

  double noniter_only = -1, mirs_only = -1, both = -1, compared = -1,
         total = -1;
  for (const experiment::MetricValue& mv : res.rows) {
    if (mv.row == "failures" && mv.metric == "noniter_only") {
      noniter_only = mv.value;
    }
    if (mv.row == "failures" && mv.metric == "mirs_only") mirs_only = mv.value;
    if (mv.row == "failures" && mv.metric == "both") both = mv.value;
    if (mv.row == "failures" && mv.metric == "compared") compared = mv.value;
    if (mv.row == "total" && mv.metric == "loops") total = mv.value;
  }
  ASSERT_GE(noniter_only, 0.0);
  ASSERT_GE(mirs_only, 0.0);
  ASSERT_GE(both, 0.0);
  ASSERT_GE(compared, 0.0);
  EXPECT_EQ(compared + noniter_only + mirs_only + both, total);
  EXPECT_EQ(total, 64.0);
}

// Binding-prefetch latency overrides are part of the batch request and its
// cache key: a prefetch run and a base-latency run of the same loop must
// not share entries, and each must warm-hit its own.
TEST(ExperimentRun, PrefetchOverridesAreKeyedIntoTheCache) {
  const std::string cache = FreshDir("hcrf-exp-ovr-");
  const auto loop =
      std::make_shared<const workload::Loop>(workload::MakeDaxpy());
  MachineConfig m = MachineConfig::Baseline();

  service::BatchRequest plain;
  plain.id = "plain";
  plain.loop = loop;
  plain.machine = m;

  service::BatchRequest prefetch = plain;
  prefetch.id = "prefetch";
  prefetch.overrides = memsim::ClassifyBindingPrefetch(
      loop->ddg, m, loop->trip, memsim::PrefetchMode::kAll);
  bool has_override = false;
  for (int v : prefetch.overrides.producer_latency) {
    if (v > 0) has_override = true;
  }
  ASSERT_TRUE(has_override) << "kAll should bind loads to miss latency";
  ASSERT_FALSE(service::MakeCacheKey(loop->ddg, m, plain.options,
                                     plain.overrides) ==
               service::MakeCacheKey(loop->ddg, m, prefetch.options,
                                     prefetch.overrides));

  service::ServiceConfig bopt;
  bopt.cache_dir = cache;
  bopt.threads = 1;
  const service::BatchReport cold =
      service::RunBatch({plain, prefetch}, bopt);
  ASSERT_TRUE(cold.items[0].ok);
  ASSERT_TRUE(cold.items[1].ok);
  EXPECT_EQ(cold.scheduled, 2);
  // Miss-latency scheduling must actually differ from the hit-latency
  // schedule somewhere observable (here: the overrides echoed back).
  EXPECT_NE(cold.items[0].result.overrides.producer_latency,
            cold.items[1].result.overrides.producer_latency);

  const service::BatchReport warm =
      service::RunBatch({plain, prefetch}, bopt);
  EXPECT_EQ(warm.hits, 2);
  EXPECT_EQ(warm.scheduled, 0);
  EXPECT_EQ(warm.items[0].result.ii, cold.items[0].result.ii);
  EXPECT_EQ(warm.items[1].result.ii, cold.items[1].result.ii);
  fs::remove_all(cache);
}

}  // namespace
}  // namespace hcrf
