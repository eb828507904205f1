// Synthetic BSP workload for scale benchmarking.
//
// A parameterized bulk-synchronous program (compute, ring neighbor
// exchange, allreduce, repeat) that exists to measure the *simulator's*
// host-time scaling with rank count and topology -- no skeleton pipeline
// involved.  It deliberately exercises the pieces that dominate large-world
// runs: many concurrent point-to-point flows, log-depth collectives, and
// per-iteration global synchronization.  Used by bench/ext_scale and
// perfbench's scale_1024 workload.
#pragma once

#include <cstdint>

#include "mpi/types.h"
#include "sim/machine.h"

namespace psk::scenario {

struct SyntheticSpec {
  int iterations = 10;
  /// Per-rank work-seconds per iteration.
  double compute_seconds = 1.0e-3;
  /// Ring neighbor exchange payload per iteration (rank r -> r+1 mod p).
  mpi::Bytes exchange_bytes = 64 * 1024;
  /// Allreduce buffer per iteration (the BSP reduction step).
  mpi::Bytes allreduce_bytes = 64;
};

struct SyntheticResult {
  /// Parallel completion time inside the simulation.
  double simulated_seconds = 0.0;
  /// Wall-clock cost of running it, the quantity ext_scale tracks.
  double host_seconds = 0.0;
  std::uint64_t events_dispatched = 0;
  int ranks = 0;
};

/// Builds a Machine from `cluster`, runs the BSP program on `ranks` ranks
/// and reports simulated and host time.  Deterministic for fixed inputs.
SyntheticResult run_synthetic_bsp(const sim::ClusterConfig& cluster,
                                  int ranks, const SyntheticSpec& spec,
                                  const mpi::MpiConfig& mpi = {});

}  // namespace psk::scenario
