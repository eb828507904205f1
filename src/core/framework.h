// SkeletonFramework: the public facade tying the pipeline together.
//
//   record()            execute an application on the dedicated testbed and
//                       capture its execution trace (profiling library)
//   make_signature()    fold + cluster + loop-compress the trace
//   make_skeleton*()    scale the signature by K
//   construct()         all of the above in one call
//   run_app/skeleton()  measured execution under a sharing scenario
//
// This mirrors how the paper's tool is used: skeletons are constructed once
// from a dedicated-testbed trace, then executed in shared environments to
// predict application performance there.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cache/keys.h"
#include "mpi/world.h"
#include "obs/phase.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sig/compress.h"
#include "sim/machine.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace psk::core {

struct FrameworkOptions {
  /// The simulated testbed (defaults to the paper's 4-node cluster with
  /// mild measurement jitter so repeated runs differ realistically).
  sim::ClusterConfig cluster = default_cluster();
  mpi::MpiConfig mpi;
  sig::CompressOptions compress;
  skeleton::ScaleOptions scale;
  int ranks = 4;
  /// Seed used for dedicated (tracing/calibration) runs.
  std::uint64_t dedicated_seed = 1;
  /// Base seed for scenario runs; callers vary it per measurement.
  std::uint64_t scenario_seed = 1000;
  /// Q = K / compression_ratio_divisor (the paper uses Q = K/2).
  double compression_ratio_divisor = 2.0;
  /// Simulated-time ceiling for measurement runs; exceeding it raises
  /// DeadlockError (scenario flutter keeps the event queue alive, so a
  /// deadlocked replay would otherwise spin forever).
  double run_time_limit = 1.0e5;
  /// Wall-clock ceiling per measurement run in real seconds (0 = off).
  /// A run that exceeds it raises TimeoutError, which sweep executors
  /// record as a `timeout` cell instead of hanging the whole grid.  Size
  /// it orders of magnitude above a healthy run: it watches wall time, so
  /// runs near the limit are not reproducible.
  double wall_deadline_seconds = 0.0;
  /// Optional wall-clock phase profiler for the construction pipeline
  /// (record / fold / cluster / compress / scale phases).  Not owned; must
  /// outlive the framework.  Null = no profiling.
  obs::PhaseProfiler* profiler = nullptr;
  /// Optional content-addressed result cache (cache/cache.h).  When set,
  /// run_skeleton() memoizes its measured time by the canonical key of
  /// (skeleton bytes, scenario, replay options, sim config, seeds) and the
  /// experiment driver memoizes app runs likewise.  Results are
  /// bit-identical with the cache on, off, cold or warm -- measurements
  /// are seeded deterministic simulations.  Instrumented runs (obs != null)
  /// always execute: the cache stores only the elapsed time, not the
  /// recorder's timeline.
  std::shared_ptr<cache::ResultCache> result_cache;

  static sim::ClusterConfig default_cluster();
};

class SkeletonFramework {
 public:
  explicit SkeletonFramework(FrameworkOptions options = {});

  const FrameworkOptions& options() const { return options_; }

  /// Runs `app` on the dedicated testbed with the profiling library
  /// attached and returns the folded execution trace.
  trace::Trace record(const mpi::RankMain& app, const std::string& name) const;

  /// Compresses a folded trace targeting Q = K / divisor.
  sig::Signature make_signature(const trace::Trace& folded_trace,
                                double k) const;

  skeleton::Skeleton make_skeleton(const sig::Signature& signature,
                                   double k) const;

  /// Compresses and scales, then validates cross-rank consistency of the
  /// scaled skeleton (skeleton/validate.h); on mismatch, retries compression
  /// at progressively higher similarity thresholds until the skeleton
  /// validates.  Throws ConfigError if no threshold up to the cap works.
  skeleton::Skeleton make_consistent_skeleton(const trace::Trace& folded_trace,
                                              double k) const;

  /// Full pipeline: trace, compress (Q = K/2), scale.
  skeleton::Skeleton construct(const mpi::RankMain& app,
                               const std::string& name,
                               double target_seconds) const;

  /// Measured application execution time under a scenario.  When `obs` is
  /// non-null the run's machine feeds it (metrics + activity spans); the
  /// caller writes the files afterwards, closing instruments at the
  /// returned elapsed time.
  double run_app(const mpi::RankMain& app,
                 const scenario::Scenario& scenario,
                 std::uint64_t seed_offset = 0,
                 obs::Recorder* obs = nullptr) const;

  /// Untraced run on the *controlled* testbed (same jitter-free conditions
  /// as record()); the delta against the traced time is the tracing
  /// overhead the paper reports as "well under 1%".
  double run_app_controlled(const mpi::RankMain& app) const;

  /// Measured skeleton execution time under a scenario.  `obs` as run_app.
  double run_skeleton(const skeleton::Skeleton& skeleton,
                      const scenario::Scenario& scenario,
                      std::uint64_t seed_offset = 0,
                      const skeleton::ReplayOptions& replay = {},
                      obs::Recorder* obs = nullptr) const;

  /// Cache-key material describing this framework's measurement
  /// environment at the given per-measurement seed offset (cache/keys.h).
  cache::RunContext run_context(std::uint64_t seed_offset) const;

 private:
  std::uint64_t scenario_run_seed(const scenario::Scenario& scenario,
                                  std::uint64_t seed_offset) const;

  FrameworkOptions options_;
};

}  // namespace psk::core
