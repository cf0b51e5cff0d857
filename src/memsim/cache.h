// Lockup-free L1 data cache model (paper Section 6.2): 32 KB, 32-byte
// lines, multi-ported, up to 8 outstanding misses (MSHRs), write-allocate.
// Associativity is not specified in the paper; we use 2-way LRU.
//
// Geometry contract: `line_bytes` and the set count (`NumSets()`) must be
// powers of two, so an address splits into offset / set / tag with shifts
// and a mask (the replay does one lookup per simulated access). The
// constructor HCRF_CHECKs it; associativity may be any positive count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcrf::memsim {

struct CacheConfig {
  long size_bytes = 32 * 1024;
  int line_bytes = 32;
  int associativity = 2;
  int mshrs = 8;

  long NumSets() const { return size_bytes / (line_bytes * associativity); }
};

/// Timing-free tag array: Lookup returns hit/miss and updates LRU and
/// contents (fill on miss). Miss overlap timing is handled by LoopReplay,
/// which owns the MSHR occupancy model.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg = {});

  /// Accesses one address; returns true on hit. Misses allocate (both
  /// loads and stores: write-allocate) into an empty way, else the LRU way.
  bool Access(std::uint64_t addr) {
    const Location loc = Locate(addr);
    Way* set = &ways_[loc.first_way];
    ++tick_;
    Way* victim = set;
    for (int a = 0; a < cfg_.associativity; ++a) {
      Way& w = set[a];
      if (w.lru != 0 && w.tag == loc.tag) {
        w.lru = tick_;
        ++hits_;
        return true;
      }
      if (w.lru < victim->lru) victim = &w;  // empty ways have lru 0
    }
    victim->tag = loc.tag;
    victim->lru = tick_;
    ++misses_;
    return false;
  }

  /// True if the address's line is currently resident (no state change).
  bool Probe(std::uint64_t addr) const {
    const Location loc = Locate(addr);
    const Way* set = &ways_[loc.first_way];
    for (int a = 0; a < cfg_.associativity; ++a) {
      if (set[a].lru != 0 && set[a].tag == loc.tag) return true;
    }
    return false;
  }

  void Reset();

  long hits() const { return hits_; }
  long misses() const { return misses_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< Tick of the last use; 0 = empty way.
  };
  struct Location {
    std::size_t first_way;  ///< Index of the set's first way in ways_.
    std::uint64_t tag;
  };

  Location Locate(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    return {static_cast<std::size_t>(line & set_mask_) *
                static_cast<std::size_t>(cfg_.associativity),
            line >> set_bits_};
  }

  CacheConfig cfg_;
  int line_shift_ = 0;         ///< log2(line_bytes).
  int set_bits_ = 0;           ///< log2(NumSets()).
  std::uint64_t set_mask_ = 0; ///< NumSets() - 1.
  std::vector<Way> ways_;      ///< sets * associativity, set-major.
  std::uint64_t tick_ = 0;
  long hits_ = 0;
  long misses_ = 0;
};

}  // namespace hcrf::memsim
