#include "core/framework.h"

#include <cmath>
#include <functional>

#include "cache/keys.h"
#include "guard/deadlock.h"
#include "skeleton/validate.h"
#include "trace/fold.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::core {

sim::ClusterConfig FrameworkOptions::default_cluster() {
  sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed();
  cluster.cpu_jitter = 0.02;
  cluster.net_jitter = 0.02;
  return cluster;
}

SkeletonFramework::SkeletonFramework(FrameworkOptions options)
    : options_(std::move(options)) {
  util::require(options_.ranks >= 1, "SkeletonFramework: need >= 1 rank");
  util::require(options_.compression_ratio_divisor > 0,
                "SkeletonFramework: ratio divisor must be positive");
}

trace::Trace SkeletonFramework::record(const mpi::RankMain& app,
                                       const std::string& name) const {
  sim::ClusterConfig cluster = options_.cluster;
  cluster.seed = options_.dedicated_seed;
  // The paper records traces on a *controlled* testbed "without any
  // competing processes or network traffic".  Suppressing measurement
  // jitter here keeps SPMD ranks' traces symmetric, which the compressor
  // needs to produce mutually consistent per-rank skeletons; scenario
  // measurement runs keep their jitter.
  cluster.cpu_jitter = 0;
  cluster.net_jitter = 0;
  sim::Machine machine(cluster);
  mpi::World world(machine, options_.ranks, options_.mpi);
  guard::DeadlockMonitor deadlock_monitor(world);
  trace::Trace trace = [&] {
    obs::PhaseProfiler::Scope scope(options_.profiler, "record");
    return trace::record_run(world, app, name);
  }();
  {
    obs::PhaseProfiler::Scope scope(options_.profiler, "fold");
    trace::fold_nonblocking(trace);
  }
  return trace;
}

sig::Signature SkeletonFramework::make_signature(
    const trace::Trace& folded_trace, double k) const {
  sig::CompressOptions compress_options = options_.compress;
  compress_options.target_ratio =
      std::max(1.0, k / options_.compression_ratio_divisor);
  compress_options.profiler = options_.profiler;
  return sig::compress(folded_trace, compress_options);
}

skeleton::Skeleton SkeletonFramework::make_skeleton(
    const sig::Signature& signature, double k) const {
  obs::PhaseProfiler::Scope scope(options_.profiler, "scale");
  return skeleton::build_skeleton(signature, k, options_.scale);
}

skeleton::Skeleton SkeletonFramework::make_consistent_skeleton(
    const trace::Trace& folded_trace, double k) const {
  sig::check_threshold_schedule(options_.compress, "make_consistent_skeleton");
  sig::Signature signature = make_signature(folded_trace, k);
  skeleton::Skeleton candidate = make_skeleton(signature, k);
  skeleton::ConsistencyReport report =
      skeleton::check_consistency(candidate);
  if (report.consistent) return candidate;

  // Retry ladder: first coarser clustering (independently compressed rank
  // traces may have fragmented differently), then collective-anchored
  // folding (eliminates cross-rank loop-rotation ambiguity), again from
  // fine to coarse thresholds.
  sig::CompressOptions compress_options = options_.compress;
  for (const bool anchored : {false, true}) {
    compress_options.anchor_at_collectives = anchored;
    // Same integer threshold schedule as sig::compress (whose thresholds
    // are exact multiples of the step, so the division round-trips).
    int step = anchored ? 0
                        : static_cast<int>(std::llround(
                              signature.threshold /
                              compress_options.threshold_step)) +
                              1;
    for (;; ++step) {
      const double threshold = step * compress_options.threshold_step;
      if (threshold > compress_options.max_threshold + 1e-12) break;
      signature = sig::compress_at_threshold(
          folded_trace,
          sig::ThresholdCompressOptions{threshold, compress_options});
      candidate = make_skeleton(signature, k);
      report = skeleton::check_consistency(candidate);
      if (report.consistent) {
        util::log_info() << "skeleton for " << folded_trace.app_name
                         << " K=" << k << " required threshold " << threshold
                         << (anchored ? " with collective anchoring" : "")
                         << " for cross-rank consistency";
        return candidate;
      }
    }
  }
  throw ConfigError("make_consistent_skeleton: no compression setting yields "
                    "a cross-rank-consistent skeleton for " +
                    folded_trace.app_name + " (" + report.detail + ")");
}

skeleton::Skeleton SkeletonFramework::construct(const mpi::RankMain& app,
                                                const std::string& name,
                                                double target_seconds) const {
  const trace::Trace trace = record(app, name);
  const double k = std::max(1.0, trace.elapsed() / target_seconds);
  const sig::Signature signature = make_signature(trace, k);
  return make_skeleton(signature, k);
}

namespace {
std::uint64_t fnv1a(const char* text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char* p = text; *p != '\0'; ++p) {
    hash ^= static_cast<unsigned char>(*p);
    hash *= 1099511628211ULL;
  }
  return hash;
}
}  // namespace

std::uint64_t SkeletonFramework::scenario_run_seed(
    const scenario::Scenario& scenario, std::uint64_t seed_offset) const {
  // Fault scenarios never take the dedicated fast path (several of them
  // share Kind::kDedicated because they add no competing load), and they
  // mix in a hash of their name so each fault scenario gets its own seed
  // stream.  Non-fault scenarios keep the original derivation exactly, so
  // pre-fault results stay bit-identical.
  if (!scenario.has_fault()) {
    if (scenario.kind == scenario::Kind::kDedicated && seed_offset == 0) {
      return options_.dedicated_seed;
    }
    // Distinct stream per scenario kind and offset.
    return options_.scenario_seed +
           static_cast<std::uint64_t>(scenario.kind) * 7919 +
           seed_offset * 104729;
  }
  return options_.scenario_seed +
         static_cast<std::uint64_t>(scenario.kind) * 7919 +
         seed_offset * 104729 + fnv1a(scenario.name);
}

double SkeletonFramework::run_app(const mpi::RankMain& app,
                                  const scenario::Scenario& scenario,
                                  std::uint64_t seed_offset,
                                  obs::Recorder* obs) const {
  sim::ClusterConfig cluster = options_.cluster;
  cluster.seed = scenario_run_seed(scenario, seed_offset);
  sim::Machine machine(cluster);
  machine.engine().set_time_limit(options_.run_time_limit);
  machine.engine().set_wall_deadline(options_.wall_deadline_seconds);
  machine.attach_obs(obs);
  scenario.apply(machine);
  mpi::World world(machine, options_.ranks, options_.mpi);
  guard::DeadlockMonitor deadlock_monitor(world);
  world.launch(app);
  return world.run();
}

double SkeletonFramework::run_app_controlled(const mpi::RankMain& app) const {
  sim::ClusterConfig cluster = options_.cluster;
  cluster.seed = options_.dedicated_seed;
  cluster.cpu_jitter = 0;
  cluster.net_jitter = 0;
  sim::Machine machine(cluster);
  machine.engine().set_time_limit(options_.run_time_limit);
  machine.engine().set_wall_deadline(options_.wall_deadline_seconds);
  mpi::World world(machine, options_.ranks, options_.mpi);
  guard::DeadlockMonitor deadlock_monitor(world);
  world.launch(app);
  return world.run();
}

cache::RunContext SkeletonFramework::run_context(
    std::uint64_t seed_offset) const {
  cache::RunContext context;
  context.cluster = &options_.cluster;
  context.mpi = &options_.mpi;
  context.ranks = options_.ranks;
  context.dedicated_seed = options_.dedicated_seed;
  context.scenario_seed = options_.scenario_seed;
  context.seed_offset = seed_offset;
  context.run_time_limit = options_.run_time_limit;
  return context;
}

double SkeletonFramework::run_skeleton(const skeleton::Skeleton& skeleton,
                                       const scenario::Scenario& scenario,
                                       std::uint64_t seed_offset,
                                       const skeleton::ReplayOptions& replay,
                                       obs::Recorder* obs) const {
  const auto execute = [&] {
    sim::ClusterConfig cluster = options_.cluster;
    cluster.seed = scenario_run_seed(scenario, seed_offset);
    sim::Machine machine(cluster);
    machine.engine().set_time_limit(options_.run_time_limit);
    machine.engine().set_wall_deadline(options_.wall_deadline_seconds);
    machine.attach_obs(obs);
    scenario.apply(machine);
    mpi::World world(machine, options_.ranks, options_.mpi);
    guard::DeadlockMonitor deadlock_monitor(world);
    return skeleton::run_skeleton(world, skeleton, replay);
  };
  // Instrumented runs always execute: the recorder wants the timeline, and
  // the cache holds only the elapsed time.
  if (options_.result_cache == nullptr || obs != nullptr) return execute();
  const cache::CacheKey key = cache::skeleton_run_key(
      skeleton, scenario, replay, run_context(seed_offset));
  return cache::memoize_scalar(options_.result_cache.get(), key, execute);
}

}  // namespace psk::core
