#include "service/session.h"

#include <algorithm>
#include <atomic>
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

/// One request's work after the lane picked it up: cache probe, then on a
/// miss the MII, the schedule and the cache write, each a timed phase.
void Serve(const BatchRequest& req, TieredCache* cache, BatchItem& item) {
  static const auto kProbe = obs::PhaseName::Timed("phase", "cache-probe");
  static const auto kMii = obs::PhaseName::Timed("phase", "mii");
  static const auto kSchedule = obs::PhaseName::Timed("phase", "schedule");
  static const auto kCachePut = obs::PhaseName::Timed("phase", "cache-put");
  CacheKey key{};
  std::uint64_t structural = 0;
  if (cache != nullptr) {
    const obs::Phase probe_phase(kProbe, item.timing.cache_probe_seconds);
    key = MakeCacheKey(req.loop->ddg, req.machine, req.options, req.overrides,
                       &structural);
    if (std::optional<core::ScheduleResult> hit = cache->Get(key)) {
      item.result = *std::move(hit);
      item.ok = item.result.ok;
      item.cache_hit = true;
      // A resident exact entry is a valid future seed for this loop ×
      // machine cell: keep the near index current even on pure hits, so
      // a cold sweep primes later `delta` submissions.
      cache->NoteStructural(structural, key);
    }
  }
  if (!item.cache_hit) {
    core::MirsOptions mirs = req.options;
    if (req.allow_warm_start && cache != nullptr) {
      // Near-key probe: the closest resident entry for the same loop ×
      // machine (differing options/overrides) seeds the engine, which
      // replays the compatible placements and repairs the rest — or
      // falls back cold, counted on the result, never silent.
      const obs::Phase near_phase({"phase", "near-probe"});
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
      const obs::Phase mii_phase(kMii, item.timing.mii_seconds);
      mirs.precomputed_mii =
          perf::CachedMii(req.loop->ddg, req.machine, req.overrides);
    }
    {
      const obs::Phase schedule_phase(kSchedule, item.timing.schedule_seconds);
      item.result =
          core::MirsHC(req.loop->ddg, req.machine, mirs, req.overrides);
    }
    item.ok = item.result.ok;
    if (cache != nullptr && !item.result.warm.used) {
      // Cold results only: the exact-key cache serves bytes that are
      // bit-identical to a cold schedule, and a warm-started result
      // carries the seed's placement history. Fallback results ARE cold
      // results and cache normally.
      const obs::Phase put_phase(kCachePut, item.timing.cache_put_seconds);
      cache->Put(key, item.result);
      cache->NoteStructural(structural, key);
    }
  }
  if (!item.ok && item.error.empty()) {
    item.error = "scheduling failed (no II <= max_ii admitted a schedule)";
  }
}

}  // namespace

SchedulerService::SchedulerService(const ServiceConfig& config)
    : config_(config) {
  std::unique_ptr<MemoryTier> memory;
  if (config_.cache_mem_entries > 0) {
    MemoryTier::Config mc;
    mc.max_entries = config_.cache_mem_entries;
    mc.max_bytes = config_.cache_mem_bytes;
    memory = std::make_unique<MemoryTier>(mc);
  }
  std::unique_ptr<DiskTier> disk;
  if (!config_.cache_dir.empty()) {
    disk = std::make_unique<DiskTier>(config_.cache_dir);
  }
  if (memory || disk) {
    cache_ = std::make_unique<TieredCache>(std::move(memory), std::move(disk));
  }
}

void SchedulerService::Drain() {
  if (cache_) cache_->Drain();
}

TierStats SchedulerService::tier_stats() const {
  return cache_ ? cache_->tier_stats() : TierStats{};
}

TierStats SchedulerService::memory_stats() const {
  const MemoryTier* memory = memory_tier();
  return memory != nullptr ? memory->tier_stats() : TierStats{};
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
  const auto held = [&](std::size_t i, std::optional<BatchRequest>&)
      -> const BatchRequest& { return requests[i]; };
  return RunBatch(requests.size(), held, on_item);
}

BatchReport SchedulerService::RunBatch(std::size_t count,
                                       const RequestSource& source,
                                       const ItemConsumer& on_item) {
  BatchReport report;
  // With a consumer each item lives on its lane and is gone once consumed;
  // without one, the report keeps them all in request order.
  if (!on_item) report.items.resize(count);
  // What the report counts of each item, taken before a consumer may take
  // the item, and summed in request order after the batch: the sums do
  // not depend on which lane finished first.
  struct Tally {
    RequestTiming timing;
    bool cache_hit = false;
    bool ok = false;
    bool warm_used = false;
  };
  std::vector<Tally> tallies(count);

  const TierStats stack_before = tier_stats();
  const TierStats mem_before = memory_stats();

  static const auto kBatch = obs::PhaseName::Timed("service", "batch");
  {
    const obs::Phase batch_phase(kBatch, report.seconds);
    ParallelFor(count, [&](size_t i) {
      static obs::Counter& req_count = obs::GetCounter("service.requests");
      static obs::Counter& hit_count = obs::GetCounter("service.cache_hits");
      static const auto kRequest = obs::PhaseName::Timed("service", "request");
      std::optional<BatchRequest> scratch;
      BatchItem lane_item;
      BatchItem& item = on_item ? lane_item : report.items[i];
      {
        obs::Phase request_phase(kRequest, item.seconds);
        item.timing.queue_seconds = request_phase.OpenedAfter(batch_phase);
        const BatchRequest& req = source(i, scratch);
        item.id = req.id;
        request_phase.set_detail(item.id);
        Serve(req, cache_.get(), item);
      }
      req_count.Add(1);
      if (item.cache_hit) hit_count.Add(1);
      tallies[i] = {item.timing, item.cache_hit, item.ok,
                    item.result.warm.used};
      if (on_item) on_item(i, item);
    });
  }
  for (const Tally& t : tallies) {
    if (t.cache_hit) {
      ++report.hits;
    } else {
      ++report.scheduled;
      if (t.warm_used) ++report.warm_starts;
    }
    if (!t.ok) ++report.failed;
    report.timing.Accumulate(t.timing);
  }

  // Per-batch deltas of the session-lifetime counters. With write-behind
  // on, disk `writes` queued by this batch may still be in flight; the
  // one-shot wrappers Drain() and re-snapshot for exact totals.
  report.cache = FlowDelta(tier_stats(), stack_before);
  report.mem_cache = FlowDelta(memory_stats(), mem_before);
  return report;
}

BatchReport SchedulerService::RunManifest(const std::string& manifest_path) {
  const std::vector<ManifestEntry> entries = LoadManifestFile(manifest_path);
  const std::string base = fs::path(manifest_path).parent_path().string();

  std::vector<BatchRequest> requests;
  std::vector<size_t> request_slot;  // maps run items back to report slots
  std::vector<BatchItem> items(entries.size());
  int unloadable = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& e = entries[i];
    BatchItem& item = items[i];
    item.id = e.graph;
    try {
      BatchRequest req = ResolveManifestEntry(e, base);
      item.id = req.id;
      requests.push_back(std::move(req));
      request_slot.push_back(i);
    } catch (const std::exception& ex) {
      item.ok = false;
      item.error = ex.what();
      ++unloadable;
    }
  }

  BatchReport report = RunBatch(requests, [&](size_t r, BatchItem& item) {
    items[request_slot[r]] = std::move(item);
  });
  report.items = std::move(items);
  report.failed += unloadable;
  return report;
}

}  // namespace hcrf::service
