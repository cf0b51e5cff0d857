// The schedule cache behind the scheduling service: one class,
// service::TieredCache, with two optional tiers.
//
// The scheduling service began with one on-disk, content-addressed
// schedule store (service::DiskTier). The resident daemon adds an
// in-memory hot tier in front of it, which absorbs the traffic of
// repeated submissions without disk parses, while the on-disk tier keeps
// the durable, process-crossing view. This header holds CacheKey, the
// per-tier counters and:
//
//  * MemoryTier — one LRU list under one lock, bounded by entry count AND
//    resident bytes over the whole tier. An entry's byte cost is its
//    canonical serialized size, so the bound means what an operator
//    thinks it means. It also keeps the near-key index (structural hash
//    -> latest exact key).
//  * TieredCache — the cache the session schedules against: a MemoryTier,
//    a DiskTier, or both. Gets probe memory first, then disk (promoting
//    hits). A Put with both tiers lands in memory and is written behind
//    to disk on the process WorkerPool, so the scheduling worker never
//    waits on the filesystem; Drain() settles every queued write (the
//    daemon calls it on SIGTERM; one-shot runs drain before reporting).
//    A disk-only cache writes synchronously.
//
// Correctness contract, inherited from the disk store: a result served
// from ANY tier is bit-identical (io::DumpResult) to a fresh schedule.
// The memory tier stores the exact core::ScheduleResult object and the
// dumps are canonical, so the existing cold/warm smoke checks gate the
// whole stack.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/mirs.h"
#include "core/thread_annotations.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "obs/metrics.h"
#include "perf/thread_pool.h"
#include "sched/lifetime.h"

namespace hcrf::service {

/// 128-bit structural key (two independent 64-bit hashes; same rationale
/// as the MII sweep cache: collisions must stay negligible over long-lived
/// heavy-traffic processes).
struct CacheKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const CacheKey&) const = default;
  /// 32 lowercase hex digits; doubles as the entry's file stem.
  std::string Hex() const;
};

/// Hash adaptor for unordered containers: `a` is already a high-quality
/// hash, `b` folds in so truncation to size_t keeps both words' entropy.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ull));
  }
};

/// Hashes the schedule-relevant content: graph name and structure (ops,
/// flags, memory refs, invariant uses, edges), machine (resources, RF fields,
/// latencies, clock) and options (budget_ratio, max_ii, iterative,
/// cluster_policy: every schedule-relevant MirsOptions field), plus per-load latency overrides when binding
/// prefetching is in play (only the positive override entries count, so
/// trailing-zero padding does not split keys). A format-version salt
/// invalidates all entries when the serialization changes.
///
/// A non-null `structural` receives the structural half of the key from
/// the same pass: graph + machine only, no options and no overrides,
/// folded to 64 bits (same fold as CacheKeyHash). Two requests share it
/// exactly when they schedule the same loop on the same machine — the
/// equivalence the near-key index uses to serve warm-start seeds across
/// differing options/override cells.
CacheKey MakeCacheKey(const DDG& graph, const MachineConfig& m,
                      const core::MirsOptions& opt,
                      const sched::LatencyOverrides& overrides = {},
                      std::uint64_t* structural = nullptr);

/// Per-tier counters. Flow counters (hits/misses/rejects/writes/evictions/
/// oversize) are monotonic since construction; residency (entries/bytes)
/// is the current footprint — only the memory tier accounts residency
/// (the disk tier's census is an offline DiskTier::Scan).
struct TierStats {
  long hits = 0;
  long misses = 0;
  long rejects = 0;    ///< Corrupt/stale entries (disk tier only).
  long writes = 0;     ///< Entries stored (admissions, not updates).
  long evictions = 0;  ///< LRU victims (memory tier only).
  long oversize = 0;   ///< Entries too large to admit (memory tier only).
  long entries = 0;    ///< Resident entry count (memory tier only).
  long bytes = 0;      ///< Resident serialized bytes (memory tier only).
  long near_hits = 0;    ///< Near-key lookups that produced a seed.
  long near_misses = 0;  ///< Near-key lookups that found nothing usable.
};

class DiskTier;  // the on-disk store, declared in service/sched_cache.h

/// LRU-bounded in-memory hot tier: one lock over one LRU list, one key
/// index, the near-key index and the counters, so both bounds hold for
/// the whole tier and eviction follows one global recency order. Safe for
/// concurrent use.
class MemoryTier {
 public:
  struct Config {
    /// Maximum resident entries (>= 1).
    long max_entries = 4096;
    /// Maximum resident serialized bytes; 0 = derive the default (64 MiB).
    long max_bytes = 0;
  };

  explicit MemoryTier(const Config& config);

  /// Returns the resident result for `key`, or nullopt.
  std::optional<core::ScheduleResult> Get(const CacheKey& key);
  /// Stores `result` under `key`, priced at its canonical dump size. An
  /// entry larger than the tier's byte bound is counted, not stored.
  void Put(const CacheKey& key, const core::ScheduleResult& result);
  /// Put with the entry's canonical serialized size already known —
  /// TieredCache serializes once for the disk write and shares the byte
  /// count instead of dumping twice.
  void PutSized(const CacheKey& key, const core::ScheduleResult& result,
                long bytes);
  TierStats tier_stats() const;

  // ---- near-key index (warm-start seeds) -------------------------------
  /// structural-hash -> latest exact key noted for it (latest wins on
  /// collision: the newest neighbour is the freshest seed).
  void NoteStructural(std::uint64_t structural, const CacheKey& key);
  /// The remembered key for `structural`, or nullopt (never `exclude`).
  /// Does not count a near hit/miss — TieredCache::GetNear resolves the
  /// key against every tier it has and reports the outcome via CountNear.
  std::optional<CacheKey> StructuralLookup(std::uint64_t structural,
                                           const CacheKey& exclude) const;
  /// Records the outcome of a near-key lookup (counters + obs registry).
  void CountNear(bool hit);

 private:
  struct Entry {
    CacheKey key;
    core::ScheduleResult result;
    long bytes = 0;
  };
  /// Evicts from the back of the LRU until `incoming_bytes` more fit both
  /// bounds beside one more entry.
  void EvictToFit(long incoming_bytes) HCRF_REQUIRES(mu_);

  const long max_entries_;
  const long max_bytes_;
  mutable Mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_ HCRF_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_ HCRF_GUARDED_BY(mu_);
  /// Near-key index, bounded by wholesale clear at 4x max_entries_ (the
  /// index stores 32 bytes per slot; losing it only costs future seeds,
  /// never correctness).
  std::unordered_map<std::uint64_t, CacheKey> near_ HCRF_GUARDED_BY(mu_);
  /// Flow counters since construction, plus the residency (entries, bytes).
  TierStats stats_ HCRF_GUARDED_BY(mu_);

  // The process-wide `mem_cache.*` instruments, resolved once.
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& writes_metric_;
  obs::Counter& evictions_metric_;
  obs::Counter& oversize_metric_;
  obs::Counter& near_hits_metric_;
  obs::Counter& near_misses_metric_;
  obs::Gauge& entries_metric_;
  obs::Gauge& bytes_metric_;
};

/// The schedule cache: a MemoryTier in front of a DiskTier, either of
/// which may be absent (a session with neither holds no cache). Safe for
/// concurrent use from the scheduling workers. Every operation is
/// best-effort: failures (I/O errors, an entry too large for the memory
/// bound) are counted, never thrown — the cache is an accelerator, not a
/// correctness dependency.
class TieredCache {
 public:
  /// With both tiers, disk writes run behind on the process worker pool;
  /// Drain() settles them before anyone counts or reads disk state.
  TieredCache(std::unique_ptr<MemoryTier> memory,
              std::unique_ptr<DiskTier> disk);
  ~TieredCache();  ///< Drains queued writes.

  /// Returns the cached result for `key`, or nullopt (miss or reject).
  std::optional<core::ScheduleResult> Get(const CacheKey& key);
  /// Stores `result` under `key` in every tier.
  void Put(const CacheKey& key, const core::ScheduleResult& result);
  /// Blocks until queued write-behind has settled.
  void Drain();
  /// Counters since construction, summed over the tiers present: hits
  /// from any tier count; misses/rejects/writes are the last tier's (a
  /// memory miss that hits disk is not a miss); evictions/oversize/
  /// entries/bytes and near_hits/near_misses are the memory tier's.
  TierStats tier_stats() const;

  /// Remembers `key` as the latest resident entry for structural hash
  /// `structural` (see MakeCacheKey). Without a memory tier, where
  /// the index lives, the note is dropped.
  void NoteStructural(std::uint64_t structural, const CacheKey& key);
  /// Near-key lookup: the latest entry noted for `structural` (same graph
  /// + machine, differing options/overrides), excluding `exclude` (the
  /// requester's own exact key, already known to miss). The remembered
  /// key resolves through Get, so an entry the memory LRU evicted is
  /// served from disk and promoted — eviction never strands the index.
  /// Serves warm-start seeds; without a memory tier it always misses,
  /// uncounted.
  std::optional<core::ScheduleResult> GetNear(std::uint64_t structural,
                                              const CacheKey& exclude);

  /// The tiers; nullptr when absent.
  MemoryTier* memory() const { return memory_.get(); }
  DiskTier* disk() const { return disk_.get(); }

 private:
  std::unique_ptr<MemoryTier> memory_;
  std::unique_ptr<DiskTier> disk_;
  /// Queued disk writes; destructed (and therefore drained) before the
  /// tiers above it, so tasks never outlive the DiskTier they target.
  perf::TaskGroup writes_{perf::WorkerPool::Shared()};
};

}  // namespace hcrf::service
