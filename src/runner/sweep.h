// Sweep executor: evaluate a vector of independent grid cells concurrently
// and return results in deterministic input order.
//
// The experiment grid (benchmark x skeleton size x sharing scenario x
// repetition) decomposes into fully isolated deterministic simulations, so
// a sweep parallelizes trivially: every cell writes into its own
// preallocated slot and the output order is the input order regardless of
// how the pool schedules the work.  `--jobs=1` degenerates to a plain
// serial loop on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

#include "obs/phase.h"
#include "runner/pool.h"

namespace psk::runner {

struct SweepOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = serial inline.
  int jobs = 0;
  /// Optional wall-clock phase profiler: the whole sweep charges its time
  /// to the "sweep" phase (per-cell work is simulated time, not phases).
  obs::PhaseProfiler* profiler = nullptr;
};

/// Runs body(i) for every i in [0, count), concurrently when options allow.
/// Rethrows the lowest-index exception, like a serial loop would.
void sweep(std::size_t count, const std::function<void(std::size_t)>& body,
           const SweepOptions& options = {});

}  // namespace psk::runner
