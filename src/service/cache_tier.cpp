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
// structural prefix (salt + machine + graph) is shared with
// MakeStructuralHash — old entries must read as misses.
constexpr std::uint64_t kCacheFormatSalt = 5;

constexpr long kDefaultMemBytes = 64L * 1024 * 1024;

std::string ToHex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// The structural prefix shared by MakeCacheKey and MakeStructuralHash:
/// format salt, machine (resources, RF organization, latencies, clock)
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

std::uint64_t MakeStructuralHash(const DDG& g, const MachineConfig& m) {
  DualHash f;
  MixStructural(f, g, m);
  // Same fold as CacheKeyHash: both words' entropy survives truncation.
  return f.a ^ (f.b * 0x9e3779b97f4a7c15ull);
}

CacheKey MakeCacheKey(const DDG& g, const MachineConfig& m,
                      const core::MirsOptions& opt,
                      const sched::LatencyOverrides& overrides) {
  DualHash f;
  MixStructural(f, g, m);

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

MemoryTier::MemoryTier(const Config& config) {
  max_entries_ = config.max_entries > 0 ? config.max_entries : 1;
  max_bytes_ = config.max_bytes > 0 ? config.max_bytes : kDefaultMemBytes;

  // Round the shard count down to a power of two so the prefix mask is
  // exact, and clamp to [1, max_entries] so every shard holds >= 1 entry.
  long shards = config.shards > 0 ? config.shards : 1;
  if (shards > max_entries_) shards = max_entries_;
  long pow2 = 1;
  while (pow2 * 2 <= shards) pow2 *= 2;

  shard_max_entries_ = max_entries_ / pow2;
  shard_max_bytes_ = max_bytes_ / pow2;
  if (shard_max_bytes_ < 1) shard_max_bytes_ = 1;

  int log2 = 0;
  for (long p = pow2; p > 1; p /= 2) ++log2;
  // pow2 == 1 masks to shard 0 regardless; 63 keeps the shift defined.
  shard_shift_ = log2 > 0 ? 64 - log2 : 63;

  shards_ = std::vector<Shard>(static_cast<std::size_t>(pow2));
}

std::optional<core::ScheduleResult> MemoryTier::Get(const CacheKey& key) {
  Shard& s = ShardFor(key);
  std::optional<core::ScheduleResult> out;
  {
    MutexLock lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
      out = it->second->result;
    }
  }
  if (out.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.hits").Add(1);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.misses").Add(1);
  }
  return out;
}

void MemoryTier::Put(const CacheKey& key, const core::ScheduleResult& result) {
  // Standalone use (no disk tier sharing a serialization): dump once to
  // price the entry. The dump is canonical, so this is the same byte count
  // TieredCache passes through PutSized.
  PutSized(key, result, static_cast<long>(io::DumpResult(result).size()));
}

void MemoryTier::PutSized(const CacheKey& key,
                          const core::ScheduleResult& result, long bytes) {
  if (bytes > shard_max_bytes_) {
    // Admitting it would force the shard to hold this entry alone (or not
    // at all); count and skip rather than churn the whole shard.
    oversize_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.oversize").Add(1);
    return;
  }
  Shard& s = ShardFor(key);
  int evicted = 0;
  bool inserted = false;
  {
    MutexLock lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      // Same key ⇒ identical bytes (the cache contract); just refresh.
      s.lru.splice(s.lru.begin(), s.lru, it->second);
    } else {
      evicted = EvictToFit(s, bytes);
      s.lru.push_front(Entry{key, result, bytes});
      s.index.emplace(key, s.lru.begin());
      s.bytes += bytes;
      inserted = true;
    }
  }
  if (inserted) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.writes").Add(1);
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.evictions").Add(evicted);
  }
  obs::GetGauge("mem_cache.entries")
      .Set(entries_.load(std::memory_order_relaxed));
  obs::GetGauge("mem_cache.bytes").Set(bytes_.load(std::memory_order_relaxed));
}

int MemoryTier::EvictToFit(Shard& s, long incoming_bytes) {
  int evicted = 0;
  while (!s.lru.empty() &&
         (static_cast<long>(s.lru.size()) >= shard_max_entries_ ||
          s.bytes + incoming_bytes > shard_max_bytes_)) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    s.index.erase(victim.key);
    s.lru.pop_back();
    ++evicted;
  }
  return evicted;
}

TierStats MemoryTier::tier_stats() const {
  TierStats t;
  t.hits = hits_.load(std::memory_order_relaxed);
  t.misses = misses_.load(std::memory_order_relaxed);
  t.writes = writes_.load(std::memory_order_relaxed);
  t.evictions = evictions_.load(std::memory_order_relaxed);
  t.oversize = oversize_.load(std::memory_order_relaxed);
  t.entries = entries_.load(std::memory_order_relaxed);
  t.bytes = bytes_.load(std::memory_order_relaxed);
  t.near_hits = near_hits_.load(std::memory_order_relaxed);
  t.near_misses = near_misses_.load(std::memory_order_relaxed);
  return t;
}

void MemoryTier::NoteStructural(std::uint64_t structural,
                                const CacheKey& key) {
  MutexLock lock(near_mu_);
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
  MutexLock lock(near_mu_);
  auto it = near_.find(structural);
  if (it == near_.end() || it->second == exclude) return std::nullopt;
  return it->second;
}

void MemoryTier::CountNear(bool hit) {
  if (hit) {
    near_hits_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.near_hits").Add(1);
  } else {
    near_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter("mem_cache.near_misses").Add(1);
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
