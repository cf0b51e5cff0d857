#include "service/cache_tier.h"

#include <cstdio>

#include "io/hcl.h"
#include "obs/metrics.h"
#include "perf/dual_hash.h"
#include "service/sched_cache.h"

namespace hcrf::service {

namespace {

using perf::DualHash;
using perf::Fnv1a;

// Bumped whenever the serialized result format or the hashed content set
// changes; salts every key so stale-format entries read as misses.
// 3 -> 4: the mix order moved the options block behind the graph so the
// structural prefix (salt + machine + graph) is shared with the structural
// hash — old entries must read as misses.
constexpr std::uint64_t kCacheFormatSalt = 5;

constexpr long kDefaultMemBytes = 64L * 1024 * 1024;

std::string ToHex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// The structural prefix of every key, and the whole of the structural
/// hash: format salt, machine (resources, RF organization, latencies, clock)
/// and graph (name + structure) — everything except options/overrides.
void MixStructural(DualHash& f, const DDG& g, const MachineConfig& m) {
  f.Mix(kCacheFormatSalt);

  // Machine: resources, RF organization, latencies, clock.
  f.Mix(static_cast<std::uint64_t>(m.num_fus));
  f.Mix(static_cast<std::uint64_t>(m.num_mem_ports));
  for (int v : {m.rf.clusters, m.rf.cluster_regs, m.rf.shared_regs, m.rf.lp,
                m.rf.sp, m.rf.buses}) {
    f.Mix(static_cast<std::uint64_t>(v));
  }
  for (int v : {m.lat.fadd, m.lat.fmul, m.lat.fdiv, m.lat.fsqrt,
                m.lat.load_hit, m.lat.store, m.lat.load_miss, m.lat.move,
                m.lat.loadr, m.lat.storer}) {
    f.Mix(static_cast<std::uint64_t>(v));
  }
  f.MixDouble(m.clock_ns);

  // Loop identity: the cached result document embeds the graph name, so
  // structurally identical twins under different names must not share an
  // entry — a hit has to be bit-identical to a fresh schedule.
  f.Mix(static_cast<std::uint64_t>(g.name().size()));
  f.Mix(Fnv1a(g.name()));

  // Graph structure. Ids are stable and tombstones keep their slot, so
  // hashing alive slots in ascending order is canonical. Edges are hashed
  // in insertion order, the order the dump writes and a parse restores:
  // it fixes both adjacency orders, which the engine reads.
  f.Mix(static_cast<std::uint64_t>(g.NumSlots()));
  f.Mix(static_cast<std::uint64_t>(g.num_invariants()));
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    const Node& n = g.node(v);
    f.Mix(static_cast<std::uint64_t>(v));
    f.Mix(static_cast<std::uint64_t>(n.op));
    f.Mix((n.inserted ? 1u : 0u) | (n.spill ? 2u : 0u) |
          (n.mem.has_value() ? 4u : 0u));
    if (n.mem.has_value()) {
      f.Mix(static_cast<std::uint64_t>(n.mem->array_id));
      f.Mix(static_cast<std::uint64_t>(n.mem->base));
      f.Mix(static_cast<std::uint64_t>(n.mem->stride));
    }
    const std::span<const std::int32_t> uses = g.InvariantUses(v);
    f.Mix(static_cast<std::uint64_t>(uses.size()));
    for (std::int32_t inv : uses) f.Mix(static_cast<std::uint64_t>(inv));
  }
  f.Mix(static_cast<std::uint64_t>(g.NumEdges()));
  for (const Edge& e : g.Edges()) {
    f.Mix(static_cast<std::uint64_t>(e.src));
    f.Mix(static_cast<std::uint64_t>(e.dst));
    f.Mix(static_cast<std::uint64_t>(e.kind));
    f.Mix(static_cast<std::uint64_t>(e.distance));
  }
}

}  // namespace

std::string CacheKey::Hex() const { return ToHex(a) + ToHex(b); }

CacheKey MakeCacheKey(const DDG& g, const MachineConfig& m,
                      const core::MirsOptions& opt,
                      const sched::LatencyOverrides& overrides,
                      std::uint64_t* structural) {
  DualHash f;
  MixStructural(f, g, m);
  // Same fold as CacheKeyHash: both words' entropy survives truncation.
  if (structural != nullptr) {
    *structural = f.a ^ (f.b * 0x9e3779b97f4a7c15ull);
  }

  // Options: every schedule-relevant MirsOptions field, the same four the
  // `.hcl` options document carries. The rest are runtime-only:
  // `precomputed_mii` must match the loop, and warm-started results never
  // enter the exact-key cache.
  f.MixDouble(opt.budget_ratio);
  f.Mix(static_cast<std::uint64_t>(opt.max_ii));
  f.Mix(static_cast<std::uint64_t>(opt.iterative ? 1 : 2));
  f.Mix(static_cast<std::uint64_t>(opt.cluster_policy));

  // Binding-prefetch latency overrides (empty in the common service path).
  // Only the positive (index, value) pairs and their count are mixed:
  // zero entries are behaviorally inert (LatencyOverrides::For falls back),
  // so two equivalent vectors that differ only in trailing-zero padding —
  // or an all-zero vector and an empty one — must key identically.
  std::uint64_t active_overrides = 0;
  for (int v : overrides.producer_latency) {
    if (v > 0) ++active_overrides;
  }
  f.Mix(active_overrides);
  for (size_t i = 0; i < overrides.producer_latency.size(); ++i) {
    if (overrides.producer_latency[i] > 0) {
      f.Mix(static_cast<std::uint64_t>(i));
      f.Mix(static_cast<std::uint64_t>(overrides.producer_latency[i]));
    }
  }
  return CacheKey{f.a, f.b};
}

// ---------------------------------------------------------------------------
// MemoryTier
// ---------------------------------------------------------------------------

MemoryTier::MemoryTier(const Config& config)
    : max_entries_(config.max_entries > 0 ? config.max_entries : 1),
      max_bytes_(config.max_bytes > 0 ? config.max_bytes : kDefaultMemBytes),
      hits_metric_(obs::GetCounter("mem_cache.hits")),
      misses_metric_(obs::GetCounter("mem_cache.misses")),
      writes_metric_(obs::GetCounter("mem_cache.writes")),
      evictions_metric_(obs::GetCounter("mem_cache.evictions")),
      oversize_metric_(obs::GetCounter("mem_cache.oversize")),
      near_hits_metric_(obs::GetCounter("mem_cache.near_hits")),
      near_misses_metric_(obs::GetCounter("mem_cache.near_misses")),
      entries_metric_(obs::GetGauge("mem_cache.entries")),
      bytes_metric_(obs::GetGauge("mem_cache.bytes")) {}

std::optional<core::ScheduleResult> MemoryTier::Get(const CacheKey& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    misses_metric_.Add(1);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  hits_metric_.Add(1);
  return it->second->result;
}

void MemoryTier::Put(const CacheKey& key, const core::ScheduleResult& result) {
  // Standalone use (no disk tier sharing a serialization): dump once to
  // price the entry. The dump is canonical, so this is the same byte count
  // TieredCache passes through PutSized.
  PutSized(key, result, static_cast<long>(io::DumpResult(result).size()));
}

void MemoryTier::PutSized(const CacheKey& key,
                          const core::ScheduleResult& result, long bytes) {
  MutexLock lock(mu_);
  if (bytes > max_bytes_) {
    // Admitting it would force the tier to hold this entry alone (or not
    // at all); count and skip rather than churn the whole tier.
    ++stats_.oversize;
    oversize_metric_.Add(1);
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Same key ⇒ identical bytes (the cache contract); just refresh.
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    EvictToFit(bytes);
    lru_.push_front(Entry{key, result, bytes});
    index_.emplace(key, lru_.begin());
    ++stats_.writes;
    ++stats_.entries;
    stats_.bytes += bytes;
    writes_metric_.Add(1);
  }
  entries_metric_.Set(stats_.entries);
  bytes_metric_.Set(stats_.bytes);
}

void MemoryTier::EvictToFit(long incoming_bytes) {
  long evicted = 0;
  while (!lru_.empty() && (stats_.entries >= max_entries_ ||
                           stats_.bytes + incoming_bytes > max_bytes_)) {
    const Entry& victim = lru_.back();
    --stats_.entries;
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evicted;
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    evictions_metric_.Add(evicted);
  }
}

TierStats MemoryTier::tier_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void MemoryTier::NoteStructural(std::uint64_t structural,
                                const CacheKey& key) {
  MutexLock lock(mu_);
  if (static_cast<long>(near_.size()) >= 4 * max_entries_ &&
      near_.find(structural) == near_.end()) {
    // The index outgrew the tier it serves (keys churning faster than
    // entries): drop it wholesale. Cheap, and only future seeds are lost.
    near_.clear();
  }
  near_[structural] = key;  // latest exact key wins on collision
}

std::optional<CacheKey> MemoryTier::StructuralLookup(
    std::uint64_t structural, const CacheKey& exclude) const {
  MutexLock lock(mu_);
  auto it = near_.find(structural);
  if (it == near_.end() || it->second == exclude) return std::nullopt;
  return it->second;
}

void MemoryTier::CountNear(bool hit) {
  MutexLock lock(mu_);
  if (hit) {
    ++stats_.near_hits;
    near_hits_metric_.Add(1);
  } else {
    ++stats_.near_misses;
    near_misses_metric_.Add(1);
  }
}

// ---------------------------------------------------------------------------
// TieredCache
// ---------------------------------------------------------------------------

TieredCache::TieredCache(std::unique_ptr<MemoryTier> memory,
                         std::unique_ptr<DiskTier> disk)
    : memory_(std::move(memory)), disk_(std::move(disk)) {}

TieredCache::~TieredCache() { Drain(); }

std::optional<core::ScheduleResult> TieredCache::Get(const CacheKey& key) {
  if (memory_) {
    if (auto hot = memory_->Get(key)) return hot;
  }
  if (!disk_) return std::nullopt;
  long bytes = 0;
  auto cold = disk_->Get(key, &bytes);
  if (cold.has_value() && memory_) {
    // Promote: the next Get for this key is memory-served, priced at the
    // size of the document it was parsed from (a canonical dump).
    memory_->PutSized(key, *cold, bytes);
  }
  return cold;
}

void TieredCache::Put(const CacheKey& key, const core::ScheduleResult& result) {
  std::string body = io::DumpResult(result);
  if (memory_) memory_->PutSized(key, result, static_cast<long>(body.size()));
  if (!disk_) return;
  if (!memory_) {
    // Nothing in front to serve the entry meanwhile: write through, so
    // a disk-only run's counters are exact without a drain.
    disk_->PutBody(key, body);
    return;
  }
  // The scheduling worker returns immediately; the filesystem write runs
  // on the process worker pool (safe to feed from any thread, including
  // pool workers). Racing writers of one key produce identical bytes and
  // DiskTier writes are atomic, so ordering does not matter.
  DiskTier* disk = disk_.get();
  writes_.Submit(
      [disk, key, body = std::move(body)] { disk->PutBody(key, body); });
}

void TieredCache::Drain() { writes_.RunAndWait(); }

void TieredCache::NoteStructural(std::uint64_t structural,
                                 const CacheKey& key) {
  if (memory_) memory_->NoteStructural(structural, key);
}

std::optional<core::ScheduleResult> TieredCache::GetNear(
    std::uint64_t structural, const CacheKey& exclude) {
  if (!memory_) return std::nullopt;
  std::optional<core::ScheduleResult> out;
  if (std::optional<CacheKey> key =
          memory_->StructuralLookup(structural, exclude)) {
    // A memory hit refreshes the LRU, and a key the memory tier evicted
    // is served from disk and promoted.
    out = Get(*key);
  }
  memory_->CountNear(out.has_value());
  return out;
}

TierStats TieredCache::tier_stats() const {
  TierStats t = memory_ ? memory_->tier_stats() : TierStats{};
  if (disk_) {
    const TierStats disk = disk_->tier_stats();
    t.hits += disk.hits;  // served from any tier
    t.misses = disk.misses;  // a memory miss that hits disk is not a miss
    t.rejects = disk.rejects;
    t.writes = disk.writes;
  }
  return t;
}

}  // namespace hcrf::service
