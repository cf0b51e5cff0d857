// The schedule cache: memory-tier LRU/byte bounds, disk promotion,
// write-behind durability after Drain(), the near-key index, bit-identity
// of results served from every tier, and the session's counters over each
// tier configuration. The concurrent hammer runs under TSan in CI.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/mirs.h"
#include "io/hcl.h"
#include "service/cache_tier.h"
#include "service/sched_cache.h"
#include "service/session.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;
using service::CacheKey;
using service::DiskTier;
using service::MakeCacheKey;
using service::MemoryTier;
using service::TieredCache;
using service::TierStats;

class CacheTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("hcrf-tier-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh two-tier stack over this test's directory.
  std::unique_ptr<TieredCache> MakeStack(long mem_entries) {
    MemoryTier::Config mcfg;
    mcfg.max_entries = mem_entries;
    return std::make_unique<TieredCache>(
        std::make_unique<MemoryTier>(mcfg),
        std::make_unique<DiskTier>(dir_.string()));
  }

  /// A memory-only cache: no disk tier behind the memory tier.
  static std::unique_ptr<TieredCache> MakeMemoryCache(
      const MemoryTier::Config& mcfg) {
    return std::make_unique<TieredCache>(std::make_unique<MemoryTier>(mcfg),
                                         nullptr);
  }

  fs::path dir_;
};

/// One scheduled kernel to cache (the result must be `ok`).
core::ScheduleResult ScheduleKernel(const workload::Loop& loop) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  const core::ScheduleResult r = core::MirsHC(loop.ddg, m, core::MirsOptions{});
  EXPECT_TRUE(r.ok);
  return r;
}

CacheKey KeyOf(const workload::Loop& loop) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  return MakeCacheKey(loop.ddg, m, core::MirsOptions{});
}

// Entry names on disk are key hex digits, so a change to what the key
// hashes (or to its order) strands every existing entry. Pinned here for
// one kernel with and without load-latency overrides; the structural
// half ignores the overrides.
TEST_F(CacheTierTest, CacheKeyAndStructuralHashArePinned) {
  const workload::Loop loop = workload::MakeHydro();
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  sched::LatencyOverrides overrides;
  overrides.producer_latency = {0, 9, 0};

  std::uint64_t plain_structural = 0;
  std::uint64_t override_structural = 0;
  const CacheKey plain =
      MakeCacheKey(loop.ddg, m, core::MirsOptions{}, {}, &plain_structural);
  const CacheKey with_overrides = MakeCacheKey(
      loop.ddg, m, core::MirsOptions{}, overrides, &override_structural);
  EXPECT_EQ(plain.Hex(), "aeb4522f8860730cb666a530ddd6a5e6");
  EXPECT_EQ(with_overrides.Hex(), "ca02aae25d0c21459b0573ea237d4690");
  EXPECT_EQ(plain_structural, 0x294f4e3becc0d89cull);
  EXPECT_EQ(override_structural, plain_structural);
  // The out-parameter leaves the key itself alone.
  EXPECT_EQ(MakeCacheKey(loop.ddg, m, core::MirsOptions{}), plain);
}

TEST_F(CacheTierTest, MemoryTierHitIsBitIdentical) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult fresh = ScheduleKernel(loop);
  MemoryTier tier(MemoryTier::Config{});
  const CacheKey key = KeyOf(loop);

  EXPECT_FALSE(tier.Get(key).has_value());
  tier.Put(key, fresh);
  const auto hit = tier.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(io::DumpResult(fresh), io::DumpResult(*hit));

  const TierStats s = tier.tier_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.writes, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, static_cast<long>(io::DumpResult(fresh).size()));
}

TEST_F(CacheTierTest, MemoryTierEntryBoundEvictsLru) {
  MemoryTier::Config cfg;
  cfg.max_entries = 2;
  MemoryTier tier(cfg);

  const workload::Loop a = workload::MakeDaxpy();
  const workload::Loop b = workload::MakeDot();
  const workload::Loop c = workload::MakeVadd();
  const core::ScheduleResult ra = ScheduleKernel(a);
  const core::ScheduleResult rb = ScheduleKernel(b);
  const core::ScheduleResult rc = ScheduleKernel(c);

  tier.Put(KeyOf(a), ra);
  tier.Put(KeyOf(b), rb);
  // Touch `a` so `b` is the LRU victim when `c` arrives.
  EXPECT_TRUE(tier.Get(KeyOf(a)).has_value());
  tier.Put(KeyOf(c), rc);

  EXPECT_TRUE(tier.Get(KeyOf(a)).has_value());
  EXPECT_FALSE(tier.Get(KeyOf(b)).has_value());
  EXPECT_TRUE(tier.Get(KeyOf(c)).has_value());
  const TierStats s = tier.tier_stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.evictions, 1);
}

// The bounds hold for the whole tier: a 32-entry tier holds 32 distinct
// keys, whatever their hash bits, without evicting any.
TEST_F(CacheTierTest, MemoryTierHoldsItsWholeEntryBound) {
  const workload::Loop loop = workload::MakeDaxpy();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));

  MemoryTier::Config cfg;
  cfg.max_entries = 32;
  MemoryTier tier(cfg);
  std::vector<CacheKey> keys;
  for (int i = 0; i < 32; ++i) {
    core::MirsOptions opt;
    opt.max_ii = 100 + i;  // distinct keys, same payload
    keys.push_back(MakeCacheKey(loop.ddg, m, opt));
    tier.Put(keys.back(), r);
  }
  const TierStats s = tier.tier_stats();
  EXPECT_EQ(s.entries, 32);
  EXPECT_EQ(s.evictions, 0);
  for (const CacheKey& key : keys) EXPECT_TRUE(tier.Get(key).has_value());
}

TEST_F(CacheTierTest, MemoryTierByteBoundHolds) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const long one = static_cast<long>(io::DumpResult(r).size());

  // Room for exactly two entries' bytes: admitting distinct keys of the
  // same result must evict, never exceed the bound.
  MemoryTier::Config cfg;
  cfg.max_entries = 64;
  cfg.max_bytes = 2 * one;
  MemoryTier tier(cfg);

  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  for (int max_ii = 1; max_ii <= 5; ++max_ii) {
    core::MirsOptions opt;
    opt.max_ii = 100 + max_ii;  // distinct keys, same payload
    tier.Put(MakeCacheKey(loop.ddg, m, opt), r);
    EXPECT_LE(tier.tier_stats().bytes, 2 * one);
  }
  const TierStats s = tier.tier_stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.evictions, 3);
  EXPECT_EQ(s.bytes, 2 * one);
}

TEST_F(CacheTierTest, MemoryTierRejectsOversizeEntry) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult r = ScheduleKernel(loop);

  MemoryTier::Config cfg;
  cfg.max_entries = 4;
  cfg.max_bytes = 8;  // smaller than any serialized schedule
  MemoryTier tier(cfg);
  tier.Put(KeyOf(loop), r);

  const TierStats s = tier.tier_stats();
  EXPECT_EQ(s.oversize, 1);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.writes, 0);
  EXPECT_FALSE(tier.Get(KeyOf(loop)).has_value());
}

TEST_F(CacheTierTest, TieredColdWarmHotBitIdentity) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult fresh = ScheduleKernel(loop);
  const CacheKey key = KeyOf(loop);
  const std::string canonical = io::DumpResult(fresh);

  auto stack = MakeStack(/*mem_entries=*/16);
  EXPECT_FALSE(stack->Get(key).has_value());  // cold
  stack->Put(key, fresh);

  // Hot: served by the memory tier.
  const auto hot = stack->Get(key);
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(canonical, io::DumpResult(*hot));
  EXPECT_EQ(stack->memory()->tier_stats().hits, 1);

  // Warm: a fresh stack over the same directory starts with an empty
  // memory tier; the hit comes off disk and is promoted.
  stack->Drain();
  stack = MakeStack(/*mem_entries=*/16);
  const auto warm = stack->Get(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(canonical, io::DumpResult(*warm));
  EXPECT_EQ(stack->disk()->tier_stats().hits, 1);
  // Promotion: the next Get is memory-served.
  const auto promoted = stack->Get(key);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_EQ(canonical, io::DumpResult(*promoted));
  EXPECT_EQ(stack->memory()->tier_stats().hits, 1);
}

// A promoted disk hit is priced at the size of the document it was parsed
// from, which is the size of the canonical dump a fresh Put would price.
TEST_F(CacheTierTest, PromotionPricesTheEntryAtItsDocumentSize) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult fresh = ScheduleKernel(loop);
  const CacheKey key = KeyOf(loop);
  const long canonical_bytes = static_cast<long>(io::DumpResult(fresh).size());

  DiskTier(dir_.string()).Put(key, fresh);
  long body_bytes = 0;
  ASSERT_TRUE(DiskTier(dir_.string()).Get(key, &body_bytes).has_value());
  EXPECT_EQ(body_bytes, canonical_bytes);

  auto stack = MakeStack(/*mem_entries=*/16);
  ASSERT_TRUE(stack->Get(key).has_value());  // disk hit, promoted
  const TierStats mem = stack->memory()->tier_stats();
  EXPECT_EQ(mem.entries, 1);
  EXPECT_EQ(mem.bytes, canonical_bytes);
}

TEST_F(CacheTierTest, WriteBehindDurableAfterDrain) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult fresh = ScheduleKernel(loop);
  const CacheKey key = KeyOf(loop);

  auto stack = MakeStack(/*mem_entries=*/16);
  stack->Put(key, fresh);
  stack->Drain();

  const DiskTier::DirStats census = DiskTier::Scan(dir_.string());
  EXPECT_EQ(census.entries, 1);
  // The durable entry round-trips bit-identically through a fresh
  // disk-only tier (no memory in front).
  DiskTier disk(dir_.string());
  const auto hit = disk.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(io::DumpResult(fresh), io::DumpResult(*hit));
}

TEST_F(CacheTierTest, TierStatsAggregateAcrossTiers) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult fresh = ScheduleKernel(loop);
  const CacheKey key = KeyOf(loop);

  auto stack = MakeStack(/*mem_entries=*/16);
  EXPECT_FALSE(stack->Get(key).has_value());  // miss in both tiers
  stack->Put(key, fresh);
  EXPECT_TRUE(stack->Get(key).has_value());  // memory hit
  stack->Drain();  // the disk write lands before it is counted

  const TierStats s = stack->tier_stats();
  EXPECT_EQ(s.hits, 1);    // from any tier
  EXPECT_EQ(s.misses, 1);  // at the durable boundary
  EXPECT_EQ(s.writes, 1);  // disk write
  EXPECT_EQ(s.entries, 1); // memory residency
  EXPECT_GT(s.bytes, 0);
}

/// A key for `loop` on the standard test machine whose exact half differs
/// by `max_ii` while the structural half (graph + machine) stays the same
/// — the shape of a what-if perturbation in the near-key index.
CacheKey KeyVariant(const workload::Loop& loop, int max_ii) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  core::MirsOptions opt;
  opt.max_ii = max_ii;
  return MakeCacheKey(loop.ddg, m, opt);
}

std::uint64_t StructuralOf(const workload::Loop& loop) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  std::uint64_t structural = 0;
  MakeCacheKey(loop.ddg, m, core::MirsOptions{}, {}, &structural);
  return structural;
}

TEST_F(CacheTierTest, NearKeyServesClosestEntryAndExcludesSelf) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const CacheKey exact = KeyOf(loop);
  const CacheKey other = KeyVariant(loop, 777);
  const std::uint64_t structural = StructuralOf(loop);

  auto cache = MakeMemoryCache(MemoryTier::Config{});
  cache->Put(exact, r);
  cache->NoteStructural(structural, exact);

  // A differing exact key (same structure) gets the remembered entry.
  const auto near = cache->GetNear(structural, /*exclude=*/other);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(io::DumpResult(r), io::DumpResult(*near));
  // Probing with the remembered key itself is not a near hit: the exact
  // path already answered (or missed) that key.
  EXPECT_FALSE(cache->GetNear(structural, /*exclude=*/exact).has_value());
  // An unknown structural hash is a near miss.
  EXPECT_FALSE(cache->GetNear(structural + 1, other).has_value());

  const TierStats s = cache->tier_stats();
  EXPECT_EQ(s.near_hits, 1);
  EXPECT_EQ(s.near_misses, 2);
}

TEST_F(CacheTierTest, NearKeyCollisionKeepsLatestExactKey) {
  const workload::Loop loop = workload::MakeDaxpy();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const CacheKey k1 = KeyVariant(loop, 101);
  const CacheKey k2 = KeyVariant(loop, 102);
  const CacheKey probe = KeyVariant(loop, 103);
  const std::uint64_t structural = StructuralOf(loop);

  auto cache = MakeMemoryCache(MemoryTier::Config{});
  cache->Put(k1, r);
  cache->Put(k2, r);
  cache->NoteStructural(structural, k1);
  cache->NoteStructural(structural, k2);  // same structure: latest wins

  const MemoryTier& index = *cache->memory();
  const auto remembered = index.StructuralLookup(structural, probe);
  ASSERT_TRUE(remembered.has_value());
  EXPECT_EQ(remembered->a, k2.a);
  EXPECT_EQ(remembered->b, k2.b);
  // With the remembered key excluded, the index has nothing else to offer.
  EXPECT_FALSE(index.StructuralLookup(structural, k2).has_value());
}

TEST_F(CacheTierTest, NearKeyStaysCoherentWithEviction) {
  // One-entry memory-only cache: the second Put evicts the first entry,
  // but the index still remembers its key. GetNear must then miss
  // (resolving through the exact path), never serve stale bytes.
  MemoryTier::Config cfg;
  cfg.max_entries = 1;
  auto cache = MakeMemoryCache(cfg);

  const workload::Loop a = workload::MakeDaxpy();
  const workload::Loop b = workload::MakeDot();
  const core::ScheduleResult ra = ScheduleKernel(a);
  const core::ScheduleResult rb = ScheduleKernel(b);

  cache->Put(KeyOf(a), ra);
  cache->NoteStructural(StructuralOf(a), KeyOf(a));
  cache->Put(KeyOf(b), rb);  // evicts a's entry; a's index note survives
  EXPECT_EQ(cache->tier_stats().evictions, 1);

  const auto near = cache->GetNear(StructuralOf(a), KeyVariant(a, 555));
  EXPECT_FALSE(near.has_value());
  EXPECT_EQ(cache->tier_stats().near_misses, 1);
}

TEST_F(CacheTierTest, NearKeyResolvesThroughDiskAndPromotes) {
  // Tiered stack with a one-entry memory tier: the noted entry is evicted
  // from memory but durable on disk. A near probe resolves the remembered
  // key through the whole stack — disk hit, promoted back into memory —
  // so eviction never strands the index.
  const workload::Loop a = workload::MakeDaxpy();
  const workload::Loop b = workload::MakeDot();
  const core::ScheduleResult ra = ScheduleKernel(a);
  const core::ScheduleResult rb = ScheduleKernel(b);

  auto stack = MakeStack(/*mem_entries=*/1);
  stack->Put(KeyOf(a), ra);
  stack->NoteStructural(StructuralOf(a), KeyOf(a));
  stack->Put(KeyOf(b), rb);  // a leaves memory, stays on disk
  stack->Drain();            // once its write lands

  const auto near = stack->GetNear(StructuralOf(a), KeyVariant(a, 555));
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(io::DumpResult(ra), io::DumpResult(*near));
  EXPECT_EQ(stack->memory()->tier_stats().near_hits, 1);
  EXPECT_GE(stack->disk()->tier_stats().hits, 1);
  // Promotion interplay: the next exact Get of a's key is memory-served.
  const long disk_hits = stack->disk()->tier_stats().hits;
  ASSERT_TRUE(stack->Get(KeyOf(a)).has_value());
  EXPECT_EQ(stack->disk()->tier_stats().hits, disk_hits);
}

// One session per tier configuration — memory only, disk only, both —
// schedules the kernel suite cold, then warm. The warm batch is served
// wholly from the cache with byte-identical results, and the session's
// counters follow TieredCache's rule: hits summed over the tiers,
// misses/rejects/writes from the last tier, evictions/oversize/residency/
// near counters from the memory tier.
TEST_F(CacheTierTest, SessionColdWarmAcrossTierConfigurations) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  const workload::Suite suite = workload::KernelSuite();
  std::vector<service::BatchRequest> requests;
  for (const workload::Loop& loop : suite.loops()) {
    service::BatchRequest req;
    req.id = loop.ddg.name();
    req.loop = std::make_shared<const workload::Loop>(loop);
    req.machine = m;
    requests.push_back(std::move(req));
  }
  const long n = static_cast<long>(requests.size());

  struct Tiers {
    const char* name;
    bool memory;
    bool disk;
  };
  for (const Tiers& tiers : {Tiers{"memory", true, false},
                             Tiers{"disk", false, true},
                             Tiers{"memory+disk", true, true}}) {
    SCOPED_TRACE(tiers.name);
    fs::remove_all(dir_);
    service::ServiceConfig config;
    if (tiers.memory) config.cache_mem_entries = 256;
    if (tiers.disk) config.cache_dir = dir_.string();
    service::SchedulerService session(config);
    ASSERT_EQ(session.memory_tier() != nullptr, tiers.memory);
    ASSERT_EQ(session.disk_tier() != nullptr, tiers.disk);

    const service::BatchReport cold = session.RunBatch(requests);
    session.Drain();
    const service::BatchReport warm = session.RunBatch(requests);
    session.Drain();
    EXPECT_EQ(cold.scheduled, n);
    EXPECT_EQ(warm.hits, n);
    ASSERT_EQ(cold.items.size(), warm.items.size());
    for (std::size_t i = 0; i < cold.items.size(); ++i) {
      EXPECT_EQ(io::DumpResult(cold.items[i].result),
                io::DumpResult(warm.items[i].result))
          << cold.items[i].id;
    }

    const TierStats s = session.tier_stats();
    const TierStats mem = session.memory_stats();
    const TierStats disk =
        tiers.disk ? session.disk_tier()->tier_stats() : TierStats{};
    const TierStats& last = tiers.disk ? disk : mem;
    EXPECT_EQ(s.hits, mem.hits + disk.hits);
    EXPECT_EQ(s.misses, last.misses);
    EXPECT_EQ(s.rejects, last.rejects);
    EXPECT_EQ(s.writes, last.writes);
    EXPECT_EQ(s.evictions, mem.evictions);
    EXPECT_EQ(s.oversize, mem.oversize);
    EXPECT_EQ(s.entries, mem.entries);
    EXPECT_EQ(s.bytes, mem.bytes);
    EXPECT_EQ(s.near_hits, mem.near_hits);
    EXPECT_EQ(s.near_misses, mem.near_misses);
    // Every configuration: n cold misses and writes, n warm hits.
    EXPECT_EQ(s.hits, n);
    EXPECT_EQ(s.misses, n);
    EXPECT_EQ(s.writes, n);
    EXPECT_EQ(s.rejects, 0);
    EXPECT_EQ(s.entries, tiers.memory ? n : 0);
    if (!tiers.memory) {
      EXPECT_EQ(mem.hits + mem.misses + mem.writes + mem.bytes, 0);
    }
    if (tiers.disk) {
      EXPECT_EQ(DiskTier::Scan(dir_.string()).entries, n);
    }
  }
}

TEST_F(CacheTierTest, ConcurrentHammerStaysConsistent) {
  // Many threads hammering a small tier with overlapping keys:
  // TSan gates the synchronization; the assertions gate the accounting.
  const workload::Loop loop = workload::MakeDaxpy();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));

  std::vector<CacheKey> keys;
  for (int i = 0; i < 16; ++i) {
    core::MirsOptions opt;
    opt.max_ii = 50 + i;
    keys.push_back(MakeCacheKey(loop.ddg, m, opt));
  }

  MemoryTier::Config cfg;
  cfg.max_entries = 8;  // smaller than the key set: eviction under load
  MemoryTier tier(cfg);

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tier, &keys, &r, t] {
      for (int i = 0; i < kIters; ++i) {
        const CacheKey& key = keys[(t * 7 + i) % keys.size()];
        if (const auto hit = tier.Get(key); hit.has_value()) {
          // Any served result must be the bit-identical payload.
          EXPECT_EQ(hit->ii, r.ii);
        } else {
          tier.Put(key, r);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const TierStats s = tier.tier_stats();
  EXPECT_LE(s.entries, 8);
  EXPECT_EQ(s.hits + s.misses, static_cast<long>(kThreads) * kIters);
  // Residency bookkeeping survived the churn: entries matches bytes.
  EXPECT_EQ(s.bytes, s.entries * static_cast<long>(io::DumpResult(r).size()));
}

}  // namespace
}  // namespace hcrf
