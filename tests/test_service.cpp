// Batch scheduling service: manifest parsing, parallel dispatch, and the
// acceptance path — scheduling the checked-in corpus end-to-end, then
// re-running warm and getting every request served bit-identically from
// the persistent cache. HCRF_CORPUS_DIR points at <repo>/corpus.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

// RunBatch's per-item consumer runs once per item on the lane that
// completed it — cold, cache hit or failed — and may take the result; the
// item is the lane's own, so the report keeps none. The batch counters are
// read from each item before the consumer runs, so a consumer that empties
// every result reports exactly what a batch without one reports. The
// request-source form, whose lanes build their own requests, builds and
// consumes each index once and matches the vector form byte for byte, at 1
// and at 4 threads.
TEST(BatchService, ConsumerSeesEveryItemOnceAndLeavesTheCounters) {
  const auto daxpy =
      std::make_shared<const workload::Loop>(workload::MakeDaxpy());
  const auto dot = std::make_shared<const workload::Loop>(workload::MakeDot());
  const auto request = [](const std::string& id,
                          std::shared_ptr<const workload::Loop> loop) {
    service::BatchRequest req;
    req.id = id;
    req.loop = std::move(loop);
    req.machine = MachineConfig::Baseline();
    return req;
  };
  std::vector<service::BatchRequest> requests;
  requests.push_back(request("hit", daxpy));
  requests.push_back(request("cold", dot));
  requests.push_back(request("failed", dot));
  requests.back().options.max_ii = 2;  // dot's RecMII is 4: unreachable
  // A near-key seed from the primed daxpy entry: a warm-started item.
  requests.push_back(request("warm", daxpy));
  requests.back().options.budget_ratio = 3.0;
  requests.back().allow_warm_start = true;

  service::ServiceConfig config;
  config.cache_mem_entries = 64;
  config.threads = 4;
  // Same primed cache state for both runs: daxpy's default cell resident.
  const auto primed_session = [&] {
    auto session = std::make_unique<service::SchedulerService>(config);
    session->RunBatch({requests[0]});
    return session;
  };

  const service::BatchReport plain = primed_session()->RunBatch(requests);
  EXPECT_EQ(plain.hits, 1);
  EXPECT_EQ(plain.scheduled, 3);
  EXPECT_EQ(plain.failed, 1);
  EXPECT_EQ(plain.warm_starts, 1);

  struct Seen {
    std::atomic<int> calls{0};
    bool ok = false;
    bool cache_hit = false;
    bool warm_used = false;
    service::RequestTiming timing;
  };
  std::vector<Seen> seen(requests.size());
  const service::BatchReport consumed = primed_session()->RunBatch(
      requests, [&](std::size_t i, service::BatchItem& item) {
        Seen& s = seen[i];
        s.calls.fetch_add(1);
        s.ok = item.ok;
        s.cache_hit = item.cache_hit;
        s.warm_used = item.result.warm.used;
        s.timing = item.timing;
        item.result = core::ScheduleResult{};
      });

  // The items were the lanes' own: the report keeps none of them.
  EXPECT_TRUE(consumed.items.empty());
  service::RequestTiming summed;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(requests[i].id);
    EXPECT_EQ(seen[i].calls.load(), 1);
    EXPECT_EQ(seen[i].ok, plain.items[i].ok);
    EXPECT_EQ(seen[i].cache_hit, plain.items[i].cache_hit);
    EXPECT_EQ(seen[i].warm_used, plain.items[i].result.warm.used);
    summed.Accumulate(seen[i].timing);
  }
  EXPECT_EQ(consumed.hits, plain.hits);
  EXPECT_EQ(consumed.scheduled, plain.scheduled);
  EXPECT_EQ(consumed.failed, plain.failed);
  EXPECT_EQ(consumed.warm_starts, plain.warm_starts);
  // Timing is wall clock, so it is compared with the items' own phases as
  // the consumer saw them, summed in request order like RunBatch does.
  EXPECT_EQ(consumed.timing.queue_seconds, summed.queue_seconds);
  EXPECT_EQ(consumed.timing.cache_probe_seconds, summed.cache_probe_seconds);
  EXPECT_EQ(consumed.timing.mii_seconds, summed.mii_seconds);
  EXPECT_EQ(consumed.timing.schedule_seconds, summed.schedule_seconds);
  EXPECT_EQ(consumed.timing.cache_put_seconds, summed.cache_put_seconds);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    std::vector<std::atomic<int>> built(requests.size());
    std::vector<std::atomic<int>> calls(requests.size());
    std::vector<std::string> dumps(requests.size());
    const service::BatchReport sourced = primed_session()->RunBatch(
        requests.size(),
        [&](std::size_t i, std::optional<service::BatchRequest>& scratch)
            -> const service::BatchRequest& {
          built[i].fetch_add(1);
          return scratch.emplace(requests[i]);
        },
        [&](std::size_t i, service::BatchItem& item) {
          calls[i].fetch_add(1);
          dumps[i] = io::DumpResult(item.result);
        });
    EXPECT_TRUE(sourced.items.empty());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(requests[i].id);
      EXPECT_EQ(built[i].load(), 1);
      EXPECT_EQ(calls[i].load(), 1);
      EXPECT_EQ(dumps[i], io::DumpResult(plain.items[i].result));
    }
    EXPECT_EQ(sourced.hits, plain.hits);
    EXPECT_EQ(sourced.scheduled, plain.scheduled);
    EXPECT_EQ(sourced.failed, plain.failed);
    EXPECT_EQ(sourced.warm_starts, plain.warm_starts);
  }
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
