#include "service/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>

#include "core/mirs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/runner.h"
#include "perf/thread_pool.h"

namespace hcrf::service {

namespace {

namespace fs = std::filesystem;

TierStats FlowDelta(const TierStats& after, const TierStats& before) {
  TierStats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.rejects -= before.rejects;
  d.writes -= before.writes;
  d.evictions -= before.evictions;
  d.oversize -= before.oversize;
  d.near_hits -= before.near_hits;
  d.near_misses -= before.near_misses;
  // entries/bytes are residency, not flow: keep the `after` footprint.
  return d;
}

}  // namespace

SchedulerService::SchedulerService(const ServiceConfig& config)
    : config_(config) {
  const bool want_mem = config_.cache_mem_entries > 0;
  const bool want_disk = !config_.cache_dir.empty();
  if (want_mem) {
    MemoryTier::Config mc;
    mc.max_entries = config_.cache_mem_entries;
    mc.max_bytes = config_.cache_mem_bytes;
    auto mem = std::make_unique<MemoryTier>(mc);
    memory_ = mem.get();
    if (want_disk) {
      auto disk = std::make_unique<DiskTier>(config_.cache_dir);
      disk_ = disk.get();
      cache_ = std::make_unique<TieredCache>(std::move(mem), std::move(disk));
    } else {
      cache_ = std::move(mem);
    }
  } else if (want_disk) {
    auto disk = std::make_unique<DiskTier>(config_.cache_dir);
    disk_ = disk.get();
    cache_ = std::move(disk);
  }
}

SchedulerService::~SchedulerService() { Drain(); }

void SchedulerService::Drain() {
  if (cache_) cache_->Drain();
}

TierStats SchedulerService::tier_stats() const {
  return cache_ ? cache_->tier_stats() : TierStats{};
}

TierStats SchedulerService::memory_stats() const {
  return memory_ != nullptr ? memory_->tier_stats() : TierStats{};
}

void SchedulerService::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  perf::WorkerPool& pool = perf::WorkerPool::Shared();
  const int max_width = pool.num_workers() + 1;
  const int width =
      config_.threads > 0 ? std::min(config_.threads, max_width) : max_width;
  const std::size_t lanes = std::min(static_cast<std::size_t>(width), n);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Each lane pulls item indices from one shared cursor until it runs
  // dry; the caller is a lane too, then steals whichever lane tasks no
  // worker has picked up yet. A lane on a pool worker yields between
  // items while other groups' tasks wait (write-behind, another batch),
  // re-queueing itself behind them, so it never holds a worker for the
  // whole batch. The group's completion wait orders every item's writes
  // before this call returns.
  std::atomic<std::size_t> next{0};
  std::function<void(bool)> lane;  // outlives the group's tasks
  perf::TaskGroup group(pool);
  lane = [&](bool yields) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      if (yields && group.OthersWaiting()) {
        group.Submit([&] { lane(true); });
        return;
      }
    }
  };
  for (std::size_t l = 1; l < lanes; ++l) group.Submit([&] { lane(true); });
  lane(false);
  group.RunAndWait();
}

BatchReport SchedulerService::RunBatch(
    const std::vector<BatchRequest>& requests, const ItemConsumer& on_item) {
  BatchReport report;
  report.items.resize(requests.size());
  // The one counter that reads the result, captured before the consumer
  // may take it.
  std::vector<char> warm_used(requests.size(), 0);

  CacheTier* cache = cache_.get();
  const TierStats stack_before = tier_stats();
  const TierStats mem_before = memory_stats();

  const auto wall0 = std::chrono::steady_clock::now();
  ParallelFor(requests.size(), [&](size_t i) {
    static obs::Counter& req_count = obs::GetCounter("service.requests");
    static obs::Counter& hit_count = obs::GetCounter("service.cache_hits");
    static obs::Histogram& req_hist =
        obs::GetHistogram("service.request_seconds");
    const BatchRequest& req = requests[i];
    BatchItem& item = report.items[i];
    item.id = req.id;
    const auto t0 = std::chrono::steady_clock::now();
    item.timing.queue_seconds =
        std::chrono::duration<double>(t0 - wall0).count();
    obs::TraceSpan req_span("service", "request");
    req_span.set_detail(req.id);
    const auto phase_seconds = [](const auto& since) {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           since)
          .count();
    };
    CacheKey key{};
    std::uint64_t structural = 0;
    if (cache != nullptr) {
      obs::TraceSpan probe_span("phase", "cache-probe");
      const auto p0 = std::chrono::steady_clock::now();
      key = MakeCacheKey(req.loop->ddg, req.machine, req.options,
                         req.overrides);
      structural = MakeStructuralHash(req.loop->ddg, req.machine);
      if (std::optional<core::ScheduleResult> hit = cache->Get(key)) {
        item.result = *std::move(hit);
        item.ok = item.result.ok;
        item.cache_hit = true;
        // A resident exact entry is a valid future seed for this loop ×
        // machine cell: keep the near index current even on pure hits, so
        // a cold sweep primes later `delta` submissions.
        cache->NoteStructural(structural, key);
      }
      item.timing.cache_probe_seconds = phase_seconds(p0);
    }
    if (!item.cache_hit) {
      core::MirsOptions mirs = req.options;
      if (req.allow_warm_start && cache != nullptr) {
        // Near-key probe: the closest resident entry for the same loop ×
        // machine (differing options/overrides) seeds the engine, which
        // replays the compatible placements and repairs the rest — or
        // falls back cold, counted on the result, never silent.
        obs::TraceSpan near_span("phase", "near-probe");
        if (std::optional<core::ScheduleResult> seed =
                cache->GetNear(structural, key)) {
          if (seed->ok) {
            mirs.warm_start = std::make_shared<const core::ScheduleResult>(
                *std::move(seed));
          }
        }
      }
      if (!mirs.precomputed_mii) {
        // The MII depends on the graph, the latency table and the global
        // resource counts — not the RF organization — so the process-wide
        // sweep cache shares it across the configurations of a
        // design-space sweep (and across repeated batches in-process).
        const auto m0 = std::chrono::steady_clock::now();
        mirs.precomputed_mii =
            perf::CachedMii(req.loop->ddg, req.machine, req.overrides);
        item.timing.mii_seconds = phase_seconds(m0);
      }
      const auto s0 = std::chrono::steady_clock::now();
      item.result =
          core::MirsHC(req.loop->ddg, req.machine, mirs, req.overrides);
      item.timing.schedule_seconds = phase_seconds(s0);
      item.ok = item.result.ok;
      if (cache != nullptr && !item.result.warm.used) {
        // Cold results only: the exact-key cache serves bytes that are
        // bit-identical to a cold schedule, and a warm-started result
        // carries the seed's placement history. Fallback results ARE cold
        // results and cache normally.
        obs::TraceSpan write_span("phase", "serialize");
        const auto w0 = std::chrono::steady_clock::now();
        cache->Put(key, item.result);
        cache->NoteStructural(structural, key);
        item.timing.serialize_seconds = phase_seconds(w0);
      }
    }
    if (!item.ok && item.error.empty()) {
      item.error = "scheduling failed (no II <= max_ii admitted a schedule)";
    }
    item.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    req_count.Add(1);
    if (item.cache_hit) hit_count.Add(1);
    req_hist.Record(item.seconds);
    warm_used[i] = item.result.warm.used;
    if (on_item) on_item(i, item);
  });
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  for (std::size_t i = 0; i < report.items.size(); ++i) {
    const BatchItem& item = report.items[i];
    if (item.cache_hit) {
      ++report.hits;
    } else {
      ++report.scheduled;
      if (warm_used[i]) ++report.warm_starts;
    }
    if (!item.ok) ++report.failed;
    report.timing.Accumulate(item.timing);
  }
  if (cache != nullptr) {
    // Per-batch deltas of the session-lifetime counters. With write-behind
    // on, disk `writes` queued by this batch may still be in flight; the
    // one-shot wrappers Drain() and re-snapshot for exact totals.
    report.cache = FlowDelta(tier_stats(), stack_before);
    report.mem_cache = FlowDelta(memory_stats(), mem_before);
  }
  return report;
}

BatchReport SchedulerService::RunManifest(const std::string& manifest_path) {
  const std::vector<ManifestEntry> entries = LoadManifestFile(manifest_path);
  const std::string base = fs::path(manifest_path).parent_path().string();

  std::vector<BatchRequest> requests;
  std::vector<size_t> request_slot;  // maps run items back to report slots
  requests.reserve(entries.size());

  BatchReport report;
  report.items.resize(entries.size());

  for (size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& e = entries[i];
    BatchItem& item = report.items[i];
    item.id = e.graph;
    try {
      BatchRequest req = ResolveManifestEntry(e, base);
      item.id = req.id;
      requests.push_back(std::move(req));
      request_slot.push_back(i);
    } catch (const std::exception& ex) {
      item.ok = false;
      item.error = ex.what();
      ++report.failed;
    }
  }

  BatchReport run = RunBatch(requests);
  for (size_t r = 0; r < run.items.size(); ++r) {
    report.items[request_slot[r]] = std::move(run.items[r]);
  }
  report.cache = run.cache;
  report.mem_cache = run.mem_cache;
  report.scheduled = run.scheduled;
  report.hits = run.hits;
  report.warm_starts = run.warm_starts;
  report.failed += run.failed;
  report.seconds = run.seconds;
  report.timing = run.timing;
  return report;
}

}  // namespace hcrf::service
