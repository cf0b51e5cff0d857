// Once-per-process cached debug switch for the scheduling engine.
//
// The environment of a scheduler process does not change after startup,
// so the flag is read exactly once and cached in a function-local static
// (the engine checks it at every spill check). This is the one place in
// src/ that reads the environment (tools/hcrf_lint.py enforces it).
#pragma once

#include <cstdlib>

namespace hcrf::core {

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
