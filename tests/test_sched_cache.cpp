// Persistent schedule cache: hits return bit-identical results, corrupted
// and stale entries are detected and fall through to a fresh schedule, and
// the structural key separates what must be separated.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "core/mirs.h"
#include "io/hcl.h"
#include "service/sched_cache.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;
using service::CacheKey;
using service::DiskTier;
using service::MakeCacheKey;
using service::TierStats;

class SchedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("hcrf-cache-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string EntryPathOf(const CacheKey& key) const {
    return (dir_ / (key.Hex() + ".hclc")).string();
  }

  fs::path dir_;
};

TEST_F(SchedCacheTest, HitReturnsBitIdenticalResult) {
  const workload::Loop loop = workload::MakeHydro();
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  const core::MirsOptions opt;
  const core::ScheduleResult fresh = core::MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(fresh.ok);

  DiskTier cache(dir_.string());
  const CacheKey key = MakeCacheKey(loop.ddg, m, opt);
  EXPECT_FALSE(cache.Get(key).has_value());  // cold
  cache.Put(key, fresh);
  const auto hit = cache.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(io::DumpResult(fresh), io::DumpResult(*hit));

  const TierStats s = cache.tier_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.rejects, 0);
  EXPECT_EQ(s.writes, 1);
}

TEST_F(SchedCacheTest, EntriesPersistAcrossCacheInstances) {
  const workload::Loop loop = workload::MakeDaxpy();
  const MachineConfig m = MachineConfig::Baseline();
  const core::MirsOptions opt;
  const core::ScheduleResult fresh = core::MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(fresh.ok);
  const CacheKey key = MakeCacheKey(loop.ddg, m, opt);
  {
    DiskTier writer(dir_.string());
    writer.Put(key, fresh);
  }
  DiskTier reader(dir_.string());
  const auto hit = reader.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(io::DumpResult(fresh), io::DumpResult(*hit));
}

TEST_F(SchedCacheTest, CorruptedEntryIsRejectedAndFallsThrough) {
  const workload::Loop loop = workload::MakeDot();
  const MachineConfig m = MachineConfig::Baseline();
  const core::MirsOptions opt;
  const core::ScheduleResult fresh = core::MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(fresh.ok);

  DiskTier cache(dir_.string());
  const CacheKey key = MakeCacheKey(loop.ddg, m, opt);
  cache.Put(key, fresh);

  // Flip a digit inside the body; the checksum must catch it.
  const std::string path = EntryPathOf(key);
  std::string text = io::ReadFile(path);
  const size_t pos = text.find("ii ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 3] = text[pos + 3] == '9' ? '8' : '9';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  EXPECT_FALSE(cache.Get(key).has_value());
  EXPECT_EQ(cache.tier_stats().rejects, 1);

  // Fall through: re-scheduling and re-putting heals the entry.
  cache.Put(key, fresh);
  const auto hit = cache.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(io::DumpResult(fresh), io::DumpResult(*hit));
}

TEST_F(SchedCacheTest, TruncatedEntryIsRejected) {
  const workload::Loop loop = workload::MakeVadd();
  const MachineConfig m = MachineConfig::Baseline();
  const core::MirsOptions opt;
  const core::ScheduleResult fresh = core::MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(fresh.ok);

  DiskTier cache(dir_.string());
  const CacheKey key = MakeCacheKey(loop.ddg, m, opt);
  cache.Put(key, fresh);

  const std::string path = EntryPathOf(key);
  const std::string text = io::ReadFile(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() / 2);

  EXPECT_FALSE(cache.Get(key).has_value());
  EXPECT_EQ(cache.tier_stats().rejects, 1);
}

TEST_F(SchedCacheTest, StaleEntryUnderTheWrongKeyIsRejected) {
  const workload::Loop loop = workload::MakeDaxpy();
  const MachineConfig m = MachineConfig::Baseline();
  core::MirsOptions opt;
  const core::ScheduleResult fresh = core::MirsHC(loop.ddg, m, opt);
  ASSERT_TRUE(fresh.ok);

  DiskTier cache(dir_.string());
  const CacheKey key = MakeCacheKey(loop.ddg, m, opt);
  cache.Put(key, fresh);

  // Simulate a stale/misfiled entry: the bytes of `key`'s entry placed
  // where a different key's entry should live. The embedded key header
  // must reject it even though checksum and body are intact.
  opt.budget_ratio = 11.0;
  const CacheKey other = MakeCacheKey(loop.ddg, m, opt);
  ASSERT_FALSE(other == key);
  fs::copy_file(EntryPathOf(key), EntryPathOf(other));
  EXPECT_FALSE(cache.Get(other).has_value());
  EXPECT_EQ(cache.tier_stats().rejects, 1);
}

TEST_F(SchedCacheTest, KeySeparatesScheduleRelevantContent) {
  const workload::Loop loop = workload::MakeStencil3();
  const MachineConfig base = MachineConfig::Baseline();
  const core::MirsOptions opt;
  const CacheKey key = MakeCacheKey(loop.ddg, base, opt);

  // Same content, fresh objects -> same key (content addressing).
  EXPECT_TRUE(MakeCacheKey(workload::MakeStencil3().ddg, base, opt) == key);

  // The cached result embeds the graph name, so structurally identical
  // loops under different names must get different keys (a hit must be
  // bit-identical to a fresh schedule).
  workload::Loop renamed = workload::MakeStencil3();
  renamed.ddg.set_name("stencil3-renamed");
  EXPECT_FALSE(MakeCacheKey(renamed.ddg, base, opt) == key);

  // Machine, options and graph perturbations -> different keys.
  MachineConfig m2 = base;
  m2.rf = RFConfig::Parse("4C16S64/2-1");
  EXPECT_FALSE(MakeCacheKey(loop.ddg, m2, opt) == key);

  MachineConfig m3 = base;
  m3.lat.fmul = 5;
  EXPECT_FALSE(MakeCacheKey(loop.ddg, m3, opt) == key);

  // Every schedule-relevant option field is keyed.
  core::MirsOptions o2;
  o2.iterative = false;
  EXPECT_FALSE(MakeCacheKey(loop.ddg, base, o2) == key);

  core::MirsOptions o3;
  o3.budget_ratio = opt.budget_ratio + 1.0;
  EXPECT_FALSE(MakeCacheKey(loop.ddg, base, o3) == key);

  core::MirsOptions o4;
  o4.max_ii = opt.max_ii / 2;
  EXPECT_FALSE(MakeCacheKey(loop.ddg, base, o4) == key);

  std::vector<CacheKey> policy_keys;
  for (const core::ClusterPolicy p :
       {core::ClusterPolicy::kBalanced, core::ClusterPolicy::kRoundRobin,
        core::ClusterPolicy::kFirstFit}) {
    core::MirsOptions o;
    o.cluster_policy = p;
    const CacheKey k = MakeCacheKey(loop.ddg, base, o);
    for (const CacheKey& seen : policy_keys) {
      EXPECT_FALSE(k == seen) << core::ToString(p);
    }
    policy_keys.push_back(k);
  }
  // The default policy is kBalanced, so its key is the base key.
  EXPECT_TRUE(policy_keys.front() == key);

  workload::Loop mutated = workload::MakeStencil3();
  mutated.ddg.AddEdge(0, 1, DepKind::kMem, 1);
  EXPECT_FALSE(MakeCacheKey(mutated.ddg, base, opt) == key);

  // Latency overrides (binding prefetching) are part of the key.
  sched::LatencyOverrides ov;
  ov.producer_latency.assign(4, 0);
  ov.producer_latency[0] = 10;
  EXPECT_FALSE(MakeCacheKey(loop.ddg, base, opt, ov) == key);
}

// Two loads feeding one add, inserted in the opposite order: every node's
// out-list is the same, only the add's in-list order differs. The engine
// reads in-lists, so the two graphs may schedule differently and must not
// share a key, and their dumps must tell them apart.
TEST_F(SchedCacheTest, KeySeparatesInListOrders) {
  auto make = [](bool a_first) {
    DDG g("two-loads");
    const NodeId a = g.AddNode(OpClass::kLoad);
    const NodeId b = g.AddNode(OpClass::kLoad);
    const NodeId add = g.AddNode(OpClass::kFAdd);
    g.AddFlow(a_first ? a : b, add, 0);
    g.AddFlow(a_first ? b : a, add, 0);
    return g;
  };
  const DDG x = make(true);
  const DDG y = make(false);
  for (NodeId v = 0; v < x.NumSlots(); ++v) {
    const std::vector<Edge> out_x(x.OutEdges(v).begin(), x.OutEdges(v).end());
    const std::vector<Edge> out_y(y.OutEdges(v).begin(), y.OutEdges(v).end());
    ASSERT_EQ(out_x.size(), out_y.size());
    for (size_t i = 0; i < out_x.size(); ++i) {
      EXPECT_EQ(out_x[i].dst, out_y[i].dst);
    }
  }
  EXPECT_NE(x.InEdges(2).front().src, y.InEdges(2).front().src);

  const MachineConfig m = MachineConfig::Baseline();
  EXPECT_FALSE(MakeCacheKey(x, m, {}) == MakeCacheKey(y, m, {}));
  workload::Loop lx;
  lx.ddg = x;
  workload::Loop ly;
  ly.ddg = y;
  EXPECT_NE(io::DumpLoop(lx), io::DumpLoop(ly));
}

// Zero override entries are behaviorally inert: vectors that differ only
// in trailing-zero padding must share a key — and, since the engine
// canonicalizes its overrides, a padded request's fresh schedule is
// bit-identical to the trimmed request's cached one.
TEST_F(SchedCacheTest, PaddedOverrideVectorsKeyIdentically) {
  const workload::Loop loop = workload::MakeDaxpy();
  const MachineConfig m = MachineConfig::Baseline();
  const core::MirsOptions opt;

  sched::LatencyOverrides trimmed;
  trimmed.producer_latency = {0, 10};
  sched::LatencyOverrides padded;
  padded.producer_latency = {0, 10, 0, 0, 0};
  EXPECT_TRUE(MakeCacheKey(loop.ddg, m, opt, trimmed) ==
              MakeCacheKey(loop.ddg, m, opt, padded));

  sched::LatencyOverrides all_zero;
  all_zero.producer_latency = {0, 0, 0};
  EXPECT_TRUE(MakeCacheKey(loop.ddg, m, opt) ==
              MakeCacheKey(loop.ddg, m, opt, all_zero));

  sched::LatencyOverrides different;
  different.producer_latency = {0, 11};
  EXPECT_FALSE(MakeCacheKey(loop.ddg, m, opt, different) ==
               MakeCacheKey(loop.ddg, m, opt, trimmed));

  const core::ScheduleResult a = core::MirsHC(loop.ddg, m, opt, trimmed);
  const core::ScheduleResult b = core::MirsHC(loop.ddg, m, opt, padded);
  EXPECT_EQ(io::DumpResult(a), io::DumpResult(b));
}

TEST_F(SchedCacheTest, ScanCountsEntries) {
  const MachineConfig m = MachineConfig::Baseline();
  const core::MirsOptions opt;
  DiskTier cache(dir_.string());
  int stored = 0;
  for (const workload::Loop& loop :
       {workload::MakeDaxpy(), workload::MakeDot(), workload::MakeVdiv()}) {
    const core::ScheduleResult r = core::MirsHC(loop.ddg, m, opt);
    ASSERT_TRUE(r.ok);
    cache.Put(MakeCacheKey(loop.ddg, m, opt), r);
    ++stored;
  }
  const DiskTier::DirStats ds = DiskTier::Scan(dir_.string());
  EXPECT_EQ(ds.entries, stored);
  EXPECT_GT(ds.bytes, 0);
}

}  // namespace
}  // namespace hcrf
