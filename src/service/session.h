// SchedulerService: the resident scheduling session.
//
// The cache stack, the parallelism configuration and the stats views
// are fields of one long-lived SchedulerService, and every request path —
// one-shot CLI, sweep, repro, tests, examples, the Unix-socket server —
// schedules through the same session object. One code path, one set of
// counters, one drain point.
//
// Ownership model:
//  * The session owns the cache stack (MemoryTier / DiskTier /
//    TieredCache, per ServiceConfig) for its whole lifetime; batch calls
//    borrow it. Per-batch stats are deltas of the stack counters around
//    the call.
//  * The worker pool stays process-wide (perf::WorkerPool::Shared());
//    the session only carries the parallelism cap applied per batch.
//  * Drain() settles the write-behind queue; the destructor drains too.
//    A one-shot wrapper drains before reporting (exact counters), the
//    daemon drains on SIGTERM.
//
// Thread safety: RunBatch and ParallelFor may be called from multiple
// threads (the server dispatches concurrent submissions). Concurrent
// calls interleave their items on the shared pool; the cache stack and
// stats snapshots are internally synchronized. A batch's tier deltas
// (report.cache / report.mem_cache) are taken around the call, so they
// can include a concurrent batch's traffic; the per-item `cache_hit`
// flags stay exact.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/batch.h"
#include "service/cache_tier.h"
#include "service/sched_cache.h"

namespace hcrf::service {

/// Configuration of a scheduling session, fixed at construction. The
/// one-shot wrappers (service::RunBatch / RunManifest / RunSweep) take it
/// too and build a transient session from it.
struct ServiceConfig {
  /// Persistent cache directory; empty disables the disk tier.
  std::string cache_dir;
  /// Memory-tier entry bound; 0 disables the memory tier.
  long cache_mem_entries = 0;
  /// Memory-tier byte bound; 0 = the MemoryTier default (64 MiB).
  long cache_mem_bytes = 0;
  /// Parallelism of one batch, including the calling thread (0 = every
  /// pool worker plus the caller, 1 = serial on the caller). Clamped to
  /// the pool's workers + 1: scheduling is CPU-bound.
  int threads = 0;
};

class SchedulerService {
 public:
  explicit SchedulerService(const ServiceConfig& config);
  ~SchedulerService();  ///< Drains queued cache writes.

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// Called once per item, on the lane that completed it (scheduled,
  /// served from the cache or failed), after any cache Put. It may take
  /// `item.result` (move it out and drop it) but must leave the other
  /// fields alone; it runs concurrently with other items' consumers.
  using ItemConsumer = std::function<void(std::size_t, BatchItem&)>;

  /// Schedules every request in parallel against the session cache stack.
  /// Never throws for per-request failures; they surface as failed items.
  /// report.cache / report.mem_cache are deltas over this call; with
  /// both tiers on (write-behind), `writes` may still be in flight at
  /// return (Drain() for exact totals — the one-shot wrappers do). With
  /// `on_item`, each item is handed to it on its lane as it completes, so
  /// a caller that reduces results as they arrive
  /// (experiment::RunExperiments, RunSweep) never holds the whole batch's
  /// schedules at once; the counters (scheduled, hits, failed,
  /// warm_starts, timing) are taken from each item before the consumer
  /// runs.
  BatchReport RunBatch(const std::vector<BatchRequest>& requests,
                       const ItemConsumer& on_item = {});

  /// Runs fn(0) .. fn(n-1) on the shared worker pool, `config().threads`
  /// wide (0 = every pool worker plus the caller), and returns when every
  /// item has finished. The one home of the session's width rule: every
  /// batch fans out through it. The caller runs one lane itself, so calls may
  /// nest (an item may call ParallelFor) and concurrent calls never wait
  /// for one another's items; lanes on pool workers yield between items
  /// to other queued work (write-behind, another call's lanes).
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

  /// Loads `manifest_path`, resolves its requests and runs them through
  /// this session. Unloadable entries become failed items; a malformed
  /// manifest throws.
  BatchReport RunManifest(const std::string& manifest_path);

  /// Settles the write-behind queue (no-op unless both tiers are on).
  void Drain();

  bool has_cache() const { return cache_ != nullptr; }
  /// The stack (or single tier); nullptr when caching is disabled.
  CacheTier* cache() { return cache_.get(); }
  /// Borrowed tier views; nullptr when that tier is not configured.
  MemoryTier* memory_tier() { return memory_; }
  DiskTier* disk_tier() { return disk_; }

  /// Whole-stack counters since session construction (hits from any
  /// tier; misses/rejects/writes at the durable boundary).
  TierStats tier_stats() const;
  /// Memory-tier counters since session construction; zeroes when the
  /// memory tier is not configured.
  TierStats memory_stats() const;

 private:
  ServiceConfig config_;
  std::unique_ptr<CacheTier> cache_;  ///< Null = caching disabled.
  MemoryTier* memory_ = nullptr;      ///< View into cache_ (or null).
  DiskTier* disk_ = nullptr;          ///< View into cache_ (or null).
};

}  // namespace hcrf::service
