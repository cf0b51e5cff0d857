// Once-per-process cached debug switches for the scheduling engine.
//
// The engine used to call getenv("HCRF_DEBUG") inside its hottest loops
// (the per-placement budget check and the per-ejection bookkeeping), which
// is a libc hash walk per placement probe. The environment of a scheduler
// process does not change after startup, so each flag is read exactly once
// and cached in a function-local static.
#pragma once

#include <cstdlib>

namespace hcrf::core {

/// True when HCRF_DEBUG is set: verbose per-attempt diagnostics on stderr.
inline bool DebugEnabled() {
  static const bool enabled = std::getenv("HCRF_DEBUG") != nullptr;
  return enabled;
}

/// True when HCRF_DEBUG_LIFETIMES is set: per-value lifetime dumps when a
/// bank ends an attempt over capacity (implies reading HCRF_DEBUG output).
inline bool DebugLifetimesEnabled() {
  static const bool enabled = std::getenv("HCRF_DEBUG_LIFETIMES") != nullptr;
  return enabled;
}

/// True when the incremental pressure tracker must be cross-validated
/// against the full ComputePressure recompute at every spill check: always
/// in debug (!NDEBUG) builds, and in release builds when
/// HCRF_CHECK_PRESSURE is set.
inline bool PressureCrossCheckEnabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool enabled = std::getenv("HCRF_CHECK_PRESSURE") != nullptr;
  return enabled;
#endif
}

}  // namespace hcrf::core
