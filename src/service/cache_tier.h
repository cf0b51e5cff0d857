// Tiered schedule-cache interface: the storage layers behind the
// scheduling service.
//
// The scheduling service began with one on-disk, content-addressed
// schedule store (service::DiskTier). The resident daemon needs that
// store to be a *tier* of a stack rather than a per-run local: a sharded
// in-memory hot tier absorbs the traffic of repeated submissions without
// lock contention or disk parses, and the on-disk tier keeps the durable,
// process-crossing view. This header extracts the common interface —
// CacheKey, Get/Put/Drain, per-tier counters — and provides the two new
// layers:
//
//  * MemoryTier — sharded by cache-key prefix (the top bits of the first
//    hash word pick the shard, so concurrent workers on different keys
//    never touch the same mutex), LRU-bounded by entry count AND resident
//    bytes. An entry's byte cost is its canonical serialized size, so the
//    bound means what an operator thinks it means.
//  * TieredCache — MemoryTier in front of DiskTier. Gets probe memory
//    first, then disk (promoting hits); Puts land in memory and are
//    written behind to disk on the process WorkerPool, so the
//    scheduling worker never waits on the filesystem. Drain() settles
//    every queued write (the daemon calls it on SIGTERM; one-shot runs
//    drain before reporting).
//
// Correctness contract, inherited from the disk store: a result served
// from ANY tier is bit-identical (io::DumpResult) to a fresh schedule.
// The memory tier stores the exact core::ScheduleResult object and the
// dumps are canonical, so the existing cold/warm smoke checks gate the
// whole stack.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mirs.h"
#include "core/thread_annotations.h"
#include "ddg/ddg.h"
#include "machine/machine_config.h"
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
CacheKey MakeCacheKey(const DDG& graph, const MachineConfig& m,
                      const core::MirsOptions& opt,
                      const sched::LatencyOverrides& overrides = {});

/// The structural half of MakeCacheKey: graph + machine only, no options
/// and no overrides. Two requests share a structural hash exactly when
/// they schedule the same loop on the same machine — the equivalence the
/// near-key index uses to serve warm-start seeds across differing
/// options/override cells. Folded to 64 bits (same fold as CacheKeyHash).
std::uint64_t MakeStructuralHash(const DDG& graph, const MachineConfig& m);

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

/// One storage layer of the schedule-cache stack. Implementations must be
/// safe for concurrent Get/Put from the scheduling workers.
class CacheTier {
 public:
  virtual ~CacheTier() = default;

  /// Returns the cached result for `key`, or nullopt (miss or reject).
  virtual std::optional<core::ScheduleResult> Get(const CacheKey& key) = 0;

  /// Stores `result` under `key`. Best-effort: failures (I/O errors, an
  /// entry too large for the memory bound) are counted, never thrown —
  /// the cache is an accelerator, not a correctness dependency.
  virtual void Put(const CacheKey& key,
                   const core::ScheduleResult& result) = 0;

  /// Blocks until asynchronously queued work (write-behind) has settled.
  /// A no-op for synchronous tiers.
  virtual void Drain() {}

  /// Remembers `key` as the latest resident entry for structural hash
  /// `structural` (see MakeStructuralHash). Tiers without a near-key
  /// index ignore the note.
  virtual void NoteStructural(std::uint64_t structural,
                              const CacheKey& key) {
    (void)structural;
    (void)key;
  }

  /// Near-key lookup: the closest resident entry sharing `structural`
  /// (same graph + machine, differing options/overrides), excluding
  /// `exclude` (the requester's own exact key, already known to miss).
  /// Serves warm-start seeds; tiers without an index always miss.
  virtual std::optional<core::ScheduleResult> GetNear(
      std::uint64_t structural, const CacheKey& exclude) {
    (void)structural;
    (void)exclude;
    return std::nullopt;
  }

  /// Counters since construction (aggregated across sub-tiers for a
  /// stacked implementation).
  virtual TierStats tier_stats() const = 0;
};

class DiskTier;  // the on-disk store, declared in service/sched_cache.h

/// Sharded, LRU-bounded in-memory hot tier.
class MemoryTier : public CacheTier {
 public:
  struct Config {
    /// Maximum resident entries across all shards (>= 1).
    long max_entries = 4096;
    /// Maximum resident serialized bytes across all shards; 0 = derive
    /// the default (64 MiB).
    long max_bytes = 0;
    /// Shard count; rounded down to a power of two and clamped to
    /// [1, max_entries] so every shard can hold at least one entry.
    int shards = 16;
  };

  explicit MemoryTier(const Config& config);

  std::optional<core::ScheduleResult> Get(const CacheKey& key) override;
  void Put(const CacheKey& key, const core::ScheduleResult& result) override;
  /// Put with the entry's canonical serialized size already known — the
  /// tiered stack serializes once for the disk write-behind and shares
  /// the byte count instead of dumping twice.
  void PutSized(const CacheKey& key, const core::ScheduleResult& result,
                long bytes);
  TierStats tier_stats() const override;

  // ---- near-key index (warm-start seeds) -------------------------------
  /// structural-hash -> latest exact key noted for it (latest wins on
  /// collision: the newest neighbour is the freshest seed).
  void NoteStructural(std::uint64_t structural, const CacheKey& key) override;
  /// GetNear through this tier only: index lookup + memory Get. A stacked
  /// cache uses StructuralLookup/CountNear instead, so a remembered key
  /// whose entry was LRU-evicted from memory can still be served (and
  /// promoted) from disk.
  std::optional<core::ScheduleResult> GetNear(std::uint64_t structural,
                                              const CacheKey& exclude)
      override;
  /// The remembered key for `structural`, or nullopt (never `exclude`).
  /// Does not count a near hit/miss — the caller resolves the key against
  /// whatever tier(s) it fronts and reports the outcome via CountNear.
  std::optional<CacheKey> StructuralLookup(std::uint64_t structural,
                                           const CacheKey& exclude) const;
  /// Records the outcome of a near-key lookup (counters + obs registry).
  void CountNear(bool hit);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  long max_entries() const { return max_entries_; }
  long max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    CacheKey key;
    core::ScheduleResult result;
    long bytes = 0;
  };
  /// One shard: its own mutex, LRU list (front = most recent) and index.
  /// Per-shard capacity is the global bound divided by the shard count,
  /// so the sum across shards can never exceed the configured bounds.
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru HCRF_GUARDED_BY(mu);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index HCRF_GUARDED_BY(mu);
    long bytes HCRF_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    // Key *prefix* selects the shard: the top bits of the first hash word
    // are the leading hex digits of the entry name.
    return shards_[(key.a >> shard_shift_) & (shards_.size() - 1)];
  }
  /// Evicts from the back of `s` until it fits its per-shard bounds with
  /// `incoming_bytes` about to be added. Returns evicted entry count.
  int EvictToFit(Shard& s, long incoming_bytes) HCRF_REQUIRES(s.mu);

  long max_entries_ = 0;        ///< Global bound (config).
  long max_bytes_ = 0;          ///< Global bound (config or default).
  long shard_max_entries_ = 0;  ///< Per-shard slice of max_entries_.
  long shard_max_bytes_ = 0;    ///< Per-shard slice of max_bytes_.
  int shard_shift_ = 0;         ///< 64 - log2(shards): prefix extraction.
  std::vector<Shard> shards_;

  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> writes_{0};
  std::atomic<long> evictions_{0};
  std::atomic<long> oversize_{0};
  std::atomic<long> entries_{0};
  std::atomic<long> bytes_{0};

  /// Near-key index. A single mutex (not sharded): NoteStructural runs
  /// once per fresh schedule and GetNear once per exact miss — both orders
  /// of magnitude rarer than Get — so contention is negligible. Bounded by
  /// wholesale clear at 4x max_entries_ (the index stores 32 bytes per
  /// slot; losing it only costs future seeds, never correctness).
  mutable Mutex near_mu_;
  std::unordered_map<std::uint64_t, CacheKey> near_ HCRF_GUARDED_BY(near_mu_);
  std::atomic<long> near_hits_{0};
  std::atomic<long> near_misses_{0};
};

/// MemoryTier stacked in front of DiskTier with write-behind. Both tiers
/// are required; single-tier configurations use the tier directly.
class TieredCache : public CacheTier {
 public:
  /// Disk writes run behind on the process worker pool; Drain() settles
  /// them before anyone counts or reads disk state.
  TieredCache(std::unique_ptr<MemoryTier> memory,
              std::unique_ptr<DiskTier> disk);
  ~TieredCache() override;  ///< Drains queued writes.

  std::optional<core::ScheduleResult> Get(const CacheKey& key) override;
  void Put(const CacheKey& key, const core::ScheduleResult& result) override;
  void Drain() override;
  /// Aggregate view: hits from any tier count, misses/rejects/writes are
  /// the disk tier's (a memory miss that hits disk is not a stack miss),
  /// evictions/oversize/entries/bytes are the memory tier's (near_hits/
  /// near_misses too — the index lives there).
  TierStats tier_stats() const override;

  /// The near index lives in the memory tier; notes route there.
  void NoteStructural(std::uint64_t structural, const CacheKey& key) override;
  /// Near lookup against the whole stack: the remembered key resolves
  /// through the stack's own Get, so an entry the memory LRU evicted is
  /// served from disk and promoted on the way — eviction never strands
  /// the index.
  std::optional<core::ScheduleResult> GetNear(std::uint64_t structural,
                                              const CacheKey& exclude)
      override;

  MemoryTier& memory() { return *memory_; }
  DiskTier& disk() { return *disk_; }
  const MemoryTier& memory() const { return *memory_; }
  const DiskTier& disk() const { return *disk_; }

 private:
  std::unique_ptr<MemoryTier> memory_;
  std::unique_ptr<DiskTier> disk_;
  /// Queued disk writes; destructed (and therefore drained) before the
  /// tiers above it, so tasks never outlive the DiskTier they target.
  perf::TaskGroup writes_{perf::WorkerPool::Shared()};
};

}  // namespace hcrf::service
