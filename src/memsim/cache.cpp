#include "memsim/cache.h"

#include <algorithm>
#include <bit>

#include "core/check.h"

namespace hcrf::memsim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  const long sets = cfg_.NumSets();
  HCRF_CHECK(cfg_.associativity >= 1, "cache associativity %d",
             cfg_.associativity);
  HCRF_CHECK(cfg_.line_bytes > 0 &&
                 std::has_single_bit(static_cast<unsigned>(cfg_.line_bytes)),
             "cache line size %d B is not a power of two", cfg_.line_bytes);
  HCRF_CHECK(sets > 0 && std::has_single_bit(static_cast<unsigned long>(sets)),
             "cache set count %ld (%ld B / (%d B x %d ways)) is not a power "
             "of two",
             sets, cfg_.size_bytes, cfg_.line_bytes, cfg_.associativity);
  HCRF_CHECK(cfg_.line_bytes * sets >= 2,
             "cache of %ld set(s) of %d B lines leaves no tag bit free",
             sets, cfg_.line_bytes);
  line_shift_ = std::countr_zero(static_cast<unsigned>(cfg_.line_bytes));
  set_bits_ = std::countr_zero(static_cast<unsigned long>(sets));
  set_mask_ = static_cast<std::uint64_t>(sets) - 1;
  tags_.assign(static_cast<std::size_t>(sets) *
                   static_cast<std::size_t>(cfg_.associativity),
               kEmpty);
}

void Cache::Reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
}

}  // namespace hcrf::memsim
