#include "service/sched_cache.h"

#include <cstdio>
#include <filesystem>

#include "io/hcl.h"
#include "obs/metrics.h"
#include "perf/dual_hash.h"

namespace hcrf::service {

// The per-instance atomic counters stay (a cache object's stats() must
// describe that instance — RunBatch reports them per batch); the shared
// metrics registry additionally accumulates the process-wide view under
// `sched_cache.*`.

namespace {

namespace fs = std::filesystem;

using perf::Fnv1a;

std::string ToHex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

}  // namespace

DiskTier::DiskTier(std::string dir)
    : dir_(std::move(dir)),
      hits_metric_(obs::GetCounter("sched_cache.hits")),
      misses_metric_(obs::GetCounter("sched_cache.misses")),
      rejects_metric_(obs::GetCounter("sched_cache.rejects")),
      writes_metric_(obs::GetCounter("sched_cache.writes")) {}

std::string DiskTier::EntryPath(const CacheKey& key) const {
  return (fs::path(dir_) / (key.Hex() + ".hclc")).string();
}

std::optional<core::ScheduleResult> DiskTier::Get(const CacheKey& key,
                                                  long* body_bytes) {
  const std::string path = EntryPath(key);
  std::string text;
  try {
    text = io::ReadFile(path);
  } catch (const std::runtime_error&) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_.Add(1);
    return std::nullopt;
  }
  const auto reject = [&]() {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    rejects_metric_.Add(1);
    return std::nullopt;
  };

  // Header line: `hclc 1 <hex>`.
  const size_t header_end = text.find('\n');
  if (header_end == std::string::npos) return reject();
  const std::string header = text.substr(0, header_end);
  const std::string want = "hclc 1 " + key.Hex();
  if (header != want) return reject();  // stale key or foreign format

  // Trailer line: `checksum <hex>` over the body between them.
  size_t trailer_begin = text.rfind("\nchecksum ");
  if (trailer_begin == std::string::npos ||
      trailer_begin < header_end) {
    return reject();
  }
  ++trailer_begin;  // skip the '\n' that belongs to the body
  const std::string_view body(text.data() + header_end + 1,
                              trailer_begin - header_end - 1);
  std::string trailer = text.substr(trailer_begin);
  while (!trailer.empty() &&
         (trailer.back() == '\n' || trailer.back() == '\r')) {
    trailer.pop_back();
  }
  if (trailer != "checksum " + ToHex(Fnv1a(body))) return reject();

  try {
    core::ScheduleResult r = io::ParseResult(body, path);
    if (body_bytes != nullptr) *body_bytes = static_cast<long>(body.size());
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_metric_.Add(1);
    return r;
  } catch (const io::HclError&) {
    return reject();
  }
}

void DiskTier::Put(const CacheKey& key, const core::ScheduleResult& result) {
  PutBody(key, io::DumpResult(result));
}

void DiskTier::PutBody(const CacheKey& key, const std::string& body) {
  const std::string hex = key.Hex();
  const std::string checksum = ToHex(Fnv1a(body));
  std::string text;
  text.reserve(8 + hex.size() + body.size() + 10 + checksum.size());
  text += "hclc 1 ";
  text += hex;
  text += '\n';
  text += body;
  text += "checksum ";
  text += checksum;
  text += '\n';
  try {
    io::WriteFileAtomic(EntryPath(key), text);
    writes_.fetch_add(1, std::memory_order_relaxed);
    writes_metric_.Add(1);
  } catch (const std::runtime_error&) {
    // Cache writes are best-effort; the schedule itself already exists.
  }
}

TierStats DiskTier::tier_stats() const {
  TierStats t;
  t.hits = hits_.load(std::memory_order_relaxed);
  t.misses = misses_.load(std::memory_order_relaxed);
  t.rejects = rejects_.load(std::memory_order_relaxed);
  t.writes = writes_.load(std::memory_order_relaxed);
  return t;
}

DiskTier::DirStats DiskTier::Scan(const std::string& dir) {
  DirStats ds;
  // Error-code overloads throughout: the directory may be mutated (or an
  // entry unlinked) while we scan, and a census must not throw over it.
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  const fs::directory_iterator end;
  while (!ec && it != end) {
    const fs::directory_entry& entry = *it;
    std::error_code entry_ec;
    if (entry.is_regular_file(entry_ec) && !entry_ec &&
        entry.path().extension() == ".hclc") {
      const std::uintmax_t size = entry.file_size(entry_ec);
      if (!entry_ec) {
        ++ds.entries;
        ds.bytes += static_cast<long>(size);
      }
    }
    it.increment(ec);
  }
  return ds;
}

}  // namespace hcrf::service
