// Performance skeletons: construction, analysis and replay.
//
// A skeleton is a short-running synthetic program whose execution time in
// any scenario reflects the application's execution time divided by the
// scaling factor K.  It is built by scaling the application's execution
// signature and replayed as an SPMD program against the virtual MPI
// runtime (the executable equivalent of the generated C program; see
// psk::codegen for the emitted source artifact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/world.h"
#include "sig/signature.h"
#include "skeleton/scale.h"

namespace psk::skeleton {

struct Skeleton {
  std::string app_name;
  /// The scaling factor K the skeleton was built with.
  double scaling_factor = 1;
  /// Expected dedicated-run duration: traced app time / K.
  double intended_time = 0;
  /// Per-rank scaled sequences (plus scaled trailing compute).
  std::vector<sig::RankSignature> ranks;
  /// Shortest-"good"-skeleton analysis (section 3.4).
  double min_good_time = 0;
  /// False when intended_time < min_good_time: the framework warns that the
  /// skeleton no longer contains a full iteration of the dominant sequence.
  bool good = true;

  int rank_count() const { return static_cast<int>(ranks.size()); }
};

/// Analysis of the dominant execution sequence (paper section 3.4): the
/// smallest per-iteration time among loops that cover at least
/// `dominance_fraction` of the application's execution time.  A skeleton is
/// "good" if it retains at least one full iteration of that sequence.
struct GoodSkeletonEstimate {
  /// Estimated minimum execution time of the smallest good skeleton.
  double min_good_time = 0;
  /// Fraction of the run covered by the chosen dominant loop.
  double dominant_coverage = 0;
};

/// Named options for the shortest-"good"-skeleton analysis.
struct GoodSkeletonOptions {
  /// Minimum fraction of the run a loop must cover to count as dominant.
  double dominance_fraction = 0.4;
};

GoodSkeletonEstimate estimate_good_skeleton(
    const sig::Signature& signature, const GoodSkeletonOptions& options = {});

/// Builds the skeleton for scaling factor `k` (finite, >= 1).
Skeleton build_skeleton(const sig::Signature& signature, double k,
                        const ScaleOptions& options = {});

/// Replay behaviour knobs.
struct ReplayOptions {
  /// When set, each compute phase samples its duration from the cluster's
  /// observed distribution (Gaussian around the mean with the Welford
  /// variance, clamped at zero) instead of always using the mean -- the
  /// paper's section 4.4 future-work refinement for unbalanced scenarios.
  bool sample_compute_distribution = false;
  /// Seed for the sampling stream (shared by all ranks, so that duration
  /// draws are correlated across ranks like real SPMD workload variation).
  std::uint64_t sample_seed = 0x5EEDULL;
};

/// SPMD replay program for the skeleton (one coroutine per rank).
mpi::RankMain skeleton_program(const Skeleton& skeleton,
                               const ReplayOptions& options = {});

/// Convenience: launches the skeleton on a world and returns its parallel
/// execution time.  The world must have as many ranks as the skeleton.
sim::Time run_skeleton(mpi::World& world, const Skeleton& skeleton,
                       const ReplayOptions& options = {});

// ---------------------------------------------------------------- predictor

/// Dedicated-testbed calibration of a skeleton (paper section 4.2): the
/// measured scaling ratio uses the skeleton's *actual* dedicated execution
/// time, which can differ slightly from the intended time.
struct Calibration {
  double app_dedicated_time = 0;
  double skeleton_dedicated_time = 0;

  double measured_scaling_ratio() const {
    return skeleton_dedicated_time > 0
               ? app_dedicated_time / skeleton_dedicated_time
               : 0;
  }
};

/// Predicted application time in a scenario where the skeleton ran for
/// `skeleton_time_in_scenario`.
double predict_app_time(const Calibration& calibration,
                        double skeleton_time_in_scenario);

/// Prediction error in percent: |predicted - actual| / actual * 100.
double prediction_error_percent(double predicted, double actual);

}  // namespace psk::skeleton
