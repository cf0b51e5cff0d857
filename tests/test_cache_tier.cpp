// Tiered schedule cache: memory-tier LRU/byte bounds, disk promotion,
// write-behind durability after Drain(), and bit-identity of results
// served from every tier. The concurrent hammer runs under TSan in CI.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/mirs.h"
#include "io/hcl.h"
#include "service/cache_tier.h"
#include "service/sched_cache.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;
using service::CacheKey;
using service::DiskTier;
using service::MakeCacheKey;
using service::MakeStructuralHash;
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
  // One shard makes the LRU order deterministic and the bound exact.
  MemoryTier::Config cfg;
  cfg.max_entries = 2;
  cfg.shards = 1;
  MemoryTier tier(cfg);
  ASSERT_EQ(tier.num_shards(), 1);

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

TEST_F(CacheTierTest, MemoryTierByteBoundHolds) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const long one = static_cast<long>(io::DumpResult(r).size());

  // Room for exactly two entries' bytes: admitting distinct keys of the
  // same result must evict, never exceed the bound.
  MemoryTier::Config cfg;
  cfg.max_entries = 64;
  cfg.max_bytes = 2 * one;
  cfg.shards = 1;
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
  cfg.shards = 1;
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
  EXPECT_EQ(stack->memory().tier_stats().hits, 1);

  // Warm: a fresh stack over the same directory starts with an empty
  // memory tier; the hit comes off disk and is promoted.
  stack->Drain();
  stack = MakeStack(/*mem_entries=*/16);
  const auto warm = stack->Get(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(canonical, io::DumpResult(*warm));
  EXPECT_EQ(stack->disk().tier_stats().hits, 1);
  // Promotion: the next Get is memory-served.
  const auto promoted = stack->Get(key);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_EQ(canonical, io::DumpResult(*promoted));
  EXPECT_EQ(stack->memory().tier_stats().hits, 1);
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
  ASSERT_TRUE(DiskTier(dir_.string()).GetSized(key, &body_bytes).has_value());
  EXPECT_EQ(body_bytes, canonical_bytes);

  auto stack = MakeStack(/*mem_entries=*/16);
  ASSERT_TRUE(stack->Get(key).has_value());  // disk hit, promoted
  const TierStats mem = stack->memory().tier_stats();
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
  return MakeStructuralHash(loop.ddg, m);
}

TEST_F(CacheTierTest, NearKeyServesClosestEntryAndExcludesSelf) {
  const workload::Loop loop = workload::MakeHydro();
  const core::ScheduleResult r = ScheduleKernel(loop);
  const CacheKey exact = KeyOf(loop);
  const CacheKey other = KeyVariant(loop, 777);
  const std::uint64_t structural = StructuralOf(loop);

  MemoryTier tier(MemoryTier::Config{});
  tier.Put(exact, r);
  tier.NoteStructural(structural, exact);

  // A differing exact key (same structure) gets the remembered entry.
  const auto near = tier.GetNear(structural, /*exclude=*/other);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(io::DumpResult(r), io::DumpResult(*near));
  // Probing with the remembered key itself is not a near hit: the exact
  // path already answered (or missed) that key.
  EXPECT_FALSE(tier.GetNear(structural, /*exclude=*/exact).has_value());
  // An unknown structural hash is a near miss.
  EXPECT_FALSE(tier.GetNear(structural + 1, other).has_value());

  const TierStats s = tier.tier_stats();
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

  MemoryTier tier(MemoryTier::Config{});
  tier.Put(k1, r);
  tier.Put(k2, r);
  tier.NoteStructural(structural, k1);
  tier.NoteStructural(structural, k2);  // same structure: latest wins

  const auto remembered = tier.StructuralLookup(structural, probe);
  ASSERT_TRUE(remembered.has_value());
  EXPECT_EQ(remembered->a, k2.a);
  EXPECT_EQ(remembered->b, k2.b);
  // With the remembered key excluded, the index has nothing else to offer.
  EXPECT_FALSE(tier.StructuralLookup(structural, k2).has_value());
}

TEST_F(CacheTierTest, NearKeyStaysCoherentWithEviction) {
  // One-entry tier: the second Put evicts the first entry, but the index
  // still remembers its key. GetNear must then miss (resolving through
  // the exact path), never serve stale bytes.
  MemoryTier::Config cfg;
  cfg.max_entries = 1;
  cfg.shards = 1;
  MemoryTier tier(cfg);

  const workload::Loop a = workload::MakeDaxpy();
  const workload::Loop b = workload::MakeDot();
  const core::ScheduleResult ra = ScheduleKernel(a);
  const core::ScheduleResult rb = ScheduleKernel(b);

  tier.Put(KeyOf(a), ra);
  tier.NoteStructural(StructuralOf(a), KeyOf(a));
  tier.Put(KeyOf(b), rb);  // evicts a's entry; a's index note survives
  EXPECT_EQ(tier.tier_stats().evictions, 1);

  const auto near = tier.GetNear(StructuralOf(a), KeyVariant(a, 555));
  EXPECT_FALSE(near.has_value());
  EXPECT_EQ(tier.tier_stats().near_misses, 1);
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
  EXPECT_EQ(stack->memory().tier_stats().near_hits, 1);
  EXPECT_GE(stack->disk().tier_stats().hits, 1);
  // Promotion interplay: the next exact Get of a's key is memory-served.
  const long disk_hits = stack->disk().tier_stats().hits;
  ASSERT_TRUE(stack->Get(KeyOf(a)).has_value());
  EXPECT_EQ(stack->disk().tier_stats().hits, disk_hits);
}

TEST_F(CacheTierTest, ConcurrentHammerStaysConsistent) {
  // Many threads hammering a small, sharded tier with overlapping keys:
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
  cfg.shards = 4;
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
