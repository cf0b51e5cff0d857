// Design-space sweep service: spec round-trips and strictness, grid
// expansion (dedup + skipped invalid combinations), and the acceptance
// path — a cold sweep then a warm sweep must be fully cache-served and
// emit bit-identical reports. HCRF_CORPUS_DIR points at <repo>/corpus.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "io/hcl.h"
#include "service/session.h"
#include "service/sweep.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;
using service::ExpandSweepMachines;
using service::LoadSweepSpecFile;
using service::ParseSweepSpec;
using service::RunSweep;
using service::SweepPlan;
using service::SweepReport;
using service::SweepSpec;

std::string CorpusPath(const std::string& rel) {
  return (fs::path(HCRF_CORPUS_DIR) / rel).string();
}

TEST(SweepSpec, ParsesAndRoundTripsCanonically) {
  const std::string text =
      "hcl 1 sweep\n"
      "name t\n"
      "suite kernels\n"
      "graph a.hcl\n"
      "rf S128\n"
      "grid clusters 2 4\n"
      "grid cluster_regs 16\n"
      "grid shared_regs 0 64\n"
      "fus 8\n"
      "mem_ports 4\n"
      "characterize 0\n"
      "budget 4.5\n"
      "max_ii 128\n"
      "iterative 0\n"
      "policy first-fit\n"
      "end\n";
  const SweepSpec spec = ParseSweepSpec(text, "<test>");
  EXPECT_EQ(DumpSweepSpec(spec), text);
  EXPECT_EQ(spec.name, "t");
  EXPECT_EQ(spec.suites, std::vector<std::string>{"kernels"});
  EXPECT_EQ(spec.grid_clusters, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.grid_shared_regs, (std::vector<int>{0, 64}));
  EXPECT_FALSE(spec.characterize);
  EXPECT_EQ(spec.budget_ratio, 4.5);
  EXPECT_EQ(spec.max_ii, 128);
  EXPECT_EQ(spec.iterative, false);
  EXPECT_EQ(spec.policy, core::ClusterPolicy::kFirstFit);
}

TEST(SweepSpec, RejectsMalformedSpecsWithLineNumbers) {
  const auto expect_line = [](const std::string& text, int line) {
    try {
      ParseSweepSpec(text, "<test>");
      FAIL() << "expected HclError for: " << text;
    } catch (const io::HclError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  // Wrong document kind.
  expect_line("hcl 1 loop\nend\n", 1);
  // Unknown suite / malformed rf / unknown directive.
  expect_line("hcl 1 sweep\nsuite perfect\nrf S128\nend\n", 2);
  expect_line("hcl 1 sweep\nsuite kernels\nrf 4X32\nend\n", 3);
  expect_line("hcl 1 sweep\nfrobs 1\nend\n", 2);
  // Incomplete grid (all three axes or none).
  expect_line("hcl 1 sweep\nsuite kernels\ngrid clusters 2\nend\n", 3);
  // Duplicate axis, axis below minimum.
  expect_line(
      "hcl 1 sweep\ngrid clusters 2\ngrid clusters 4\nend\n", 3);
  expect_line("hcl 1 sweep\ngrid clusters 0\nend\n", 2);
  // No workload / no organizations / missing end.
  expect_line("hcl 1 sweep\nrf S128\nend\n", 3);
  expect_line("hcl 1 sweep\nsuite kernels\nend\n", 3);
  expect_line("hcl 1 sweep\nsuite kernels\nrf S128\n", 3);
}

TEST(SweepPlan, GridExpandsDedupsAndSkipsInvalidCombos) {
  SweepSpec spec;
  spec.suites = {"kernels"};
  spec.rfs = {"S128", "4C16S64"};
  spec.grid_clusters = {2, 4, 8};
  spec.grid_cluster_regs = {16};
  spec.grid_shared_regs = {0, 64};
  spec.characterize = false;
  const SweepPlan plan =
      ExpandSweepMachines(spec, hw::RFModelMode::kPaperTable);
  // Explicit organizations first, then the grid cross product in
  // clusters-major order; the grid's 4C16S64 duplicates the explicit one
  // and 8C16 (pure clustered, 8 clusters > 4 memory ports) is skipped.
  std::vector<std::string> orgs;
  for (const service::SweepMachine& sm : plan.machines) orgs.push_back(sm.org);
  EXPECT_EQ(orgs, (std::vector<std::string>{
                      "S128", "4C16S64/2-1", "2C16/1-1", "2C16S64/3-1",
                      "4C16/1-1", "8C16S64/1-1"}));
  ASSERT_EQ(plan.skipped.size(), 1u);
  EXPECT_EQ(plan.skipped[0].substr(0, 8), "8C16/1-1");
}

TEST(SweepSpec, CheckedInSpecsAreCanonicalAndExpand) {
  int seen = 0;
  const fs::path dir = fs::path(HCRF_CORPUS_DIR) / "sweeps";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".hcl") continue;
    ++seen;
    const std::string text = io::ReadFile(entry.path().string());
    const SweepSpec spec =
        ParseSweepSpec(text, entry.path().filename().string());
    EXPECT_EQ(text, DumpSweepSpec(spec)) << entry.path();
  }
  EXPECT_GE(seen, 2);

  // The paper grid: at least the three organization families, none
  // silently dropped.
  const SweepSpec paper =
      LoadSweepSpecFile(CorpusPath("sweeps/paper-organizations.hcl"));
  const SweepPlan plan =
      ExpandSweepMachines(paper, hw::RFModelMode::kPaperTable);
  EXPECT_GE(plan.machines.size(), 3u);
  EXPECT_TRUE(plan.skipped.empty());
  bool mono = false, clustered = false, hier = false;
  for (const service::SweepMachine& sm : plan.machines) {
    const RFKind kind = sm.machine.rf.Kind();
    mono |= kind == RFKind::kMonolithic;
    clustered |= kind == RFKind::kClustered;
    hier |= kind == RFKind::kHierarchical ||
            kind == RFKind::kHierarchicalClustered;
  }
  EXPECT_TRUE(mono && clustered && hier);
}

// The subsystem's acceptance criterion: a cold sweep populates the
// schedule cache; a warm rerun of the same spec is served entirely from
// it and emits bit-identical CSV and markdown reports.
TEST(Sweep, ColdThenWarmIsBitIdenticalAndFullyCacheServed) {
  SweepSpec spec;
  spec.name = "accept";
  spec.graphs = {CorpusPath("kernels/daxpy.hcl"),
                 CorpusPath("kernels/dot.hcl")};
  spec.rfs = {"S128", "4C32", "4C16S64"};

  const fs::path dir = fs::path(::testing::TempDir()) / "hcrf-sweep-accept";
  fs::remove_all(dir);
  service::ServiceConfig opt;
  opt.cache_dir = (dir / "cache").string();
  opt.threads = 2;

  const SweepReport cold = RunSweep(spec, dir.string(), opt);
  EXPECT_EQ(cold.orgs.size(), 3u);
  EXPECT_EQ(cold.loops.size(), 2u);
  EXPECT_EQ(cold.hits, 0);
  EXPECT_EQ(cold.scheduled, 6);
  EXPECT_EQ(cold.failed, 0);
  // The summary's avg II/MII column is fixed-point with three decimals.
  EXPECT_NE(service::SweepMarkdown(cold).find("| S128 | 2 | 0 | 1.000 |"),
            std::string::npos);

  const SweepReport warm = RunSweep(spec, dir.string(), opt);
  EXPECT_EQ(warm.scheduled, 0);
  EXPECT_EQ(warm.hits, static_cast<int>(warm.cells.size()));
  for (const service::SweepCell& c : warm.cells) {
    EXPECT_TRUE(c.cache_hit) << c.org << "/" << c.loop;
  }
  EXPECT_EQ(service::SweepCsv(cold), service::SweepCsv(warm));
  EXPECT_EQ(service::SweepMarkdown(cold), service::SweepMarkdown(warm));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hcrf
