// Batch scheduling service: manifest parsing, parallel dispatch, and the
// acceptance path — scheduling the checked-in corpus end-to-end, then
// re-running warm and getting every request served bit-identically from
// the persistent cache. HCRF_CORPUS_DIR points at <repo>/corpus.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "io/hcl.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;

std::string CorpusPath(const std::string& rel) {
  return (fs::path(HCRF_CORPUS_DIR) / rel).string();
}

TEST(Manifest, ParsesRequestsWithDefaultsAndOverrides) {
  const auto entries = service::ParseManifest(
      "hcl 1 manifest\n"
      "# comment\n"
      "request graph a.hcl\n"
      "request graph b.hcl rf 4C32/1-1 characterize 0 budget 3.5 max_ii 64 "
      "iterative 0 policy first-fit\n"
      "end\n",
      "<test>");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].graph, "a.hcl");
  EXPECT_EQ(entries[0].rf, "S128");
  EXPECT_TRUE(entries[0].characterize);
  EXPECT_EQ(entries[1].rf, "4C32/1-1");
  EXPECT_FALSE(entries[1].characterize);
  EXPECT_EQ(entries[1].budget_ratio, 3.5);
  EXPECT_EQ(entries[1].max_ii, 64);
  EXPECT_EQ(entries[1].iterative, false);
  EXPECT_EQ(entries[1].policy, core::ClusterPolicy::kFirstFit);
}

TEST(Manifest, RejectsMalformedInputWithLineNumbers) {
  const auto expect_line = [](const std::string& text, int line) {
    try {
      service::ParseManifest(text, "<test>");
      FAIL() << "expected HclError for: " << text;
    } catch (const io::HclError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_line("request graph a.hcl\n", 1);  // missing header
  expect_line("hcl 1 manifest\nrequest rf S128\nend\n", 2);  // no graph
  expect_line("hcl 1 manifest\nrequest graph a.hcl frobs 1\nend\n", 2);
  expect_line("hcl 1 manifest\nrequest graph a.hcl\n", 2);  // missing end
  expect_line("hcl 1 manifest\nend\nrequest graph a.hcl\n", 3);
  // `machine` excludes rf/characterize even at their default values.
  expect_line(
      "hcl 1 manifest\nrequest graph a.hcl machine m.hcl rf S128\nend\n", 2);
  expect_line(
      "hcl 1 manifest\nrequest graph a.hcl machine m.hcl characterize 1\n"
      "end\n",
      2);
}

TEST(BatchService, SchedulesRequestsWithoutACache) {
  service::BatchRequest req;
  req.id = "daxpy";
  req.loop = std::make_shared<const workload::Loop>(workload::MakeDaxpy());
  req.machine = MachineConfig::Baseline();
  const service::BatchReport report = service::RunBatch({req}, {});
  ASSERT_EQ(report.items.size(), 1u);
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_FALSE(report.items[0].cache_hit);
  EXPECT_EQ(report.scheduled, 1);
  EXPECT_EQ(report.hits, 0);
  EXPECT_EQ(report.failed, 0);
}

TEST(BatchService, MissingGraphFileFailsItsItemOnly) {
  const fs::path dir = fs::path(::testing::TempDir()) / "hcrf-manifest-miss";
  fs::create_directories(dir);
  io::WriteFileAtomic((dir / "ok.hcl").string(),
                      io::DumpLoop(workload::MakeDot()));
  io::WriteFileAtomic((dir / "m.manifest").string(),
                      "hcl 1 manifest\n"
                      "request graph ok.hcl\n"
                      "request graph missing.hcl\n"
                      "end\n");
  const service::BatchReport report =
      service::RunManifest((dir / "m.manifest").string(), {});
  ASSERT_EQ(report.items.size(), 2u);
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_FALSE(report.items[1].error.empty());
  EXPECT_EQ(report.failed, 1);
  fs::remove_all(dir);
}

// The subsystem's acceptance criterion: run the checked-in corpus manifest
// cold, then warm against the same cache; the warm run must be served
// entirely from the cache and produce bit-identical schedule output.
TEST(BatchService, CorpusManifestColdThenWarmIsBitIdentical) {
  const std::string manifest = CorpusPath("kernels.manifest");
  ASSERT_TRUE(fs::exists(manifest)) << manifest;

  service::ServiceConfig opt;
  const fs::path cache_dir =
      fs::path(::testing::TempDir()) / "hcrf-corpus-cache";
  fs::remove_all(cache_dir);
  opt.cache_dir = cache_dir.string();

  const service::BatchReport cold = service::RunManifest(manifest, opt);
  ASSERT_GT(cold.items.size(), 0u);
  EXPECT_EQ(cold.failed, 0);
  EXPECT_GT(cold.scheduled, 0);
  for (const service::BatchItem& item : cold.items) {
    EXPECT_TRUE(item.ok) << item.id << ": " << item.error;
  }

  const service::BatchReport warm = service::RunManifest(manifest, opt);
  EXPECT_EQ(warm.failed, 0);
  EXPECT_EQ(warm.scheduled, 0);
  EXPECT_GT(warm.hits, 0);
  EXPECT_EQ(warm.hits, static_cast<int>(warm.items.size()));
  EXPECT_EQ(warm.cache.hits, static_cast<long>(warm.items.size()));

  ASSERT_EQ(cold.items.size(), warm.items.size());
  for (size_t i = 0; i < cold.items.size(); ++i) {
    EXPECT_TRUE(warm.items[i].cache_hit) << warm.items[i].id;
    EXPECT_EQ(io::DumpResult(cold.items[i].result),
              io::DumpResult(warm.items[i].result))
        << cold.items[i].id;
  }
  fs::remove_all(cache_dir);
}

// Every checked-in corpus file must stay loadable and canonical (dump ==
// file bytes), so the corpus can't rot as the format evolves.
TEST(BatchService, CheckedInCorpusFilesAreCanonical) {
  int seen = 0;
  for (const char* sub : {"kernels", "synth"}) {
    const fs::path dir = fs::path(HCRF_CORPUS_DIR) / sub;
    ASSERT_TRUE(fs::exists(dir)) << dir;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".hcl") continue;
      ++seen;
      const std::string text = io::ReadFile(entry.path().string());
      const workload::Loop loop =
          io::ParseLoop(text, entry.path().filename().string());
      EXPECT_EQ(text, io::DumpLoop(loop)) << entry.path();
    }
  }
  EXPECT_GE(seen, 12 + 16);
}

}  // namespace
}  // namespace hcrf
