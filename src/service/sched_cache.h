// Persistent, content-addressed schedule cache: the durable disk tier of
// service::TieredCache (service/cache_tier.h), alone or behind the memory
// tier.
//
// Extends the in-memory MII sweep cache idea (src/perf/runner.cpp) to whole
// schedules on disk: the key is a structural hash of everything a schedule
// depends on — the dependence graph, the machine / RF configuration and the
// value-typed scheduling options (see service/cache_tier.h for CacheKey) —
// and the value is the full core::ScheduleResult in its canonical .hcl
// serialization. Repeated sweeps over the same corpus therefore skip
// scheduling entirely, and a cached result is bit-identical to a fresh one
// (io::DumpResult round-trip).
//
// Entry files are self-describing:
//     hclc 1 <32-hex-digit key>
//     <canonical `hcl 1 result` document>
//     checksum <16-hex-digit fnv1a over the document>
// A key mismatch (stale entry, e.g. a truncated-hash collision or a file
// renamed by hand) or checksum/parse failure is counted as a reject and
// falls through to a fresh schedule; corrupt entries never surface.
//
// Thread safety: Get/Put may be called concurrently (the batch scheduler
// runs requests on the process worker pool). Counters are atomics; writes
// go through io::WriteFileAtomic (temp + rename), so readers never observe
// torn entries. Two threads writing the same key write identical bytes.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "core/mirs.h"
#include "obs/metrics.h"
#include "service/cache_tier.h"

namespace hcrf::service {

class DiskTier {
 public:
  /// `dir` is created lazily on first Put.
  explicit DiskTier(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Returns the cached result for `key`, or nullopt (miss or reject).
  /// On a hit, a non-null `body_bytes` receives the size of the entry's
  /// result document: the canonical dump size TieredCache prices a
  /// promoted entry at, known here without dumping the result again.
  std::optional<core::ScheduleResult> Get(const CacheKey& key,
                                          long* body_bytes = nullptr);

  /// Stores `result` under `key` (atomic write; errors are swallowed —
  /// the cache is an accelerator, never a correctness dependency).
  void Put(const CacheKey& key, const core::ScheduleResult& result);

  /// Put with the canonical `hcl 1 result` document already serialized;
  /// TieredCache dumps once and shares the bytes with the memory
  /// tier's size accounting.
  void PutBody(const CacheKey& key, const std::string& body);

  /// Flow counters only (`rejects`: stale key, bad checksum or
  /// unparsable entry); the directory census is Scan's.
  TierStats tier_stats() const;

  /// Offline directory census for `hcrf_sched stats <dir>`.
  struct DirStats {
    long entries = 0;
    long bytes = 0;
  };
  static DirStats Scan(const std::string& dir);

 private:
  std::string EntryPath(const CacheKey& key) const;

  std::string dir_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> rejects_{0};
  std::atomic<long> writes_{0};
  // The process-wide `sched_cache.*` instruments, resolved once.
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& rejects_metric_;
  obs::Counter& writes_metric_;
};

}  // namespace hcrf::service
