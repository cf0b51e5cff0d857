// Lockup-free L1 data cache model (paper Section 6.2): 32 KB, 32-byte
// lines, multi-ported, up to 8 outstanding misses (MSHRs), write-allocate.
// Associativity is not specified in the paper; we use 2-way LRU.
//
// Geometry contract: `line_bytes` and the set count (`NumSets()`) must be
// powers of two, so an address splits into offset / set / tag with shifts
// and a mask (the replay does one lookup per simulated access), and the
// cache must hold at least two bytes of lines (line_bytes * NumSets() >= 2),
// so a tag never fills all 64 bits. The constructor HCRF_CHECKs it;
// associativity may be any positive count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hcrf::memsim {

struct CacheConfig {
  long size_bytes = 32 * 1024;
  int line_bytes = 32;
  int associativity = 2;
  int mshrs = 8;

  long NumSets() const { return size_bytes / (line_bytes * associativity); }
};

/// Timing-free tag array: Access returns hit/miss and updates recency and
/// contents (fill on miss). The cache keeps no counters: callers count
/// Access results as they need. Miss overlap timing is handled by
/// ReplayLoop, which owns the MSHR occupancy model. Each set holds its
/// tags most recently used first, kEmpty-padded at the tail: a hit moves
/// its tag to way 0 (an MRU hit is one compare), a miss shifts the set
/// down one way, dropping the last (an empty way, else the LRU tag), and
/// writes way 0.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg = {});

  /// Accesses one address; returns true on hit. Misses allocate (both
  /// loads and stores: write-allocate) into an empty way, else the LRU way.
  /// `kWays` is the associativity fixed at compile time, which the replay
  /// kernel instantiates for the paper's 2-way L1; it must equal
  /// config().associativity. The default 0 reads the configured count.
  template <int kWays = 0>
  bool Access(std::uint64_t addr) {
    const int ways = kWays > 0 ? kWays : cfg_.associativity;
    const Location loc = Locate(addr, ways);
    std::uint64_t* set = &tags_[loc.first_way];
    if (set[0] == loc.tag) return true;
    int a = 1;
    while (a < ways && set[a] != loc.tag) ++a;
    const bool hit = a < ways;
    // Shift the more recent ways down over the hit way (or, on a miss,
    // over the last way, which drops the victim).
    for (int b = hit ? a : ways - 1; b > 0; --b) {
      set[b] = set[b - 1];
    }
    set[0] = loc.tag;
    return hit;
  }

  /// True if the address's line is currently resident (no state change).
  bool Probe(std::uint64_t addr) const {
    const Location loc = Locate(addr, cfg_.associativity);
    const std::uint64_t* set = &tags_[loc.first_way];
    for (int a = 0; a < cfg_.associativity; ++a) {
      if (set[a] == loc.tag) return true;
    }
    return false;
  }

  void Reset();

  /// The whole tag array: two caches with equal arrays (and equal
  /// geometry) answer every future access alike.
  std::span<const std::uint64_t> tags() const { return tags_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  /// Tag of a never-filled way. Real tags are addr >> (line + set bits),
  /// and the constructor requires at least one such bit, so no real tag
  /// equals it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Location {
    std::size_t first_way;  ///< Index of the set's first way in tags_.
    std::uint64_t tag;
  };

  Location Locate(std::uint64_t addr, int ways) const {
    const std::uint64_t line = addr >> line_shift_;
    return {static_cast<std::size_t>(line & set_mask_) *
                static_cast<std::size_t>(ways),
            line >> set_bits_};
  }

  CacheConfig cfg_;
  int line_shift_ = 0;         ///< log2(line_bytes).
  int set_bits_ = 0;           ///< log2(NumSets()).
  std::uint64_t set_mask_ = 0; ///< NumSets() - 1.
  /// sets * associativity, set-major; each set in recency order.
  std::vector<std::uint64_t> tags_;
};

}  // namespace hcrf::memsim
