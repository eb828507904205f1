#include "core/experiment.h"

#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "mpi/world.h"
#include "runner/sweep.h"
#include "sim/machine.h"
#include "trace/recorder.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::core {

namespace {
/// Sizes and Ks are memoized by a fixed-point key (microsecond resolution).
long long size_key(double value) {
  return static_cast<long long>(std::llround(value * 1e6));
}

/// Seed offset of a skeleton measurement run: one stream per size and
/// repetition.
std::uint64_t skeleton_seed_offset(double size_seconds, int repetition) {
  return 1 +
         static_cast<std::uint64_t>(std::llabs(size_key(size_seconds)) % 97) +
         static_cast<std::uint64_t>(repetition) * 31;
}

/// Injects the driver's profiler unless the caller supplied one; returns
/// the options for the framework member initializer.
core::FrameworkOptions& ensure_profiler(core::FrameworkOptions& options,
                                        obs::PhaseProfiler* phases) {
  if (options.profiler == nullptr) options.profiler = phases;
  return options;
}
}  // namespace

ExperimentDriver::ExperimentDriver(ExperimentConfig config)
    : config_(std::move(config)),
      framework_(ensure_profiler(config_.framework, &phases_)) {}

mpi::RankMain ExperimentDriver::program(const std::string& app,
                                        apps::NasClass cls) const {
  return apps::find_benchmark(app).make(cls);
}

double ExperimentDriver::run_app(const std::string& app, apps::NasClass cls,
                                 const scenario::Scenario& scenario,
                                 std::uint64_t seed_offset) const {
  const auto execute = [&] {
    return framework_.run_app(program(app, cls), scenario, seed_offset);
  };
  cache::ResultCache* cache = framework_.options().result_cache.get();
  if (cache == nullptr) return execute();
  // The (benchmark, NAS class) pair identifies the workload: app programs
  // are deterministic generators of their inputs.
  const cache::CacheKey key =
      cache::app_run_key(app, apps::class_name(cls), scenario,
                         framework_.run_context(seed_offset));
  return cache::memoize_scalar(cache, key, execute);
}

const trace::Trace& ExperimentDriver::app_trace(const std::string& app) {
  return traces_.get(app, [&] {
    util::log_info() << "tracing " << app << " (class "
                     << apps::class_name(config_.app_class) << ")";
    return framework_.record(program(app, config_.app_class), app);
  });
}

double ExperimentDriver::app_time(const std::string& app,
                                  const scenario::Scenario& scenario,
                                  int repetition) {
  const auto key =
      std::make_tuple(app, std::string(scenario.name), repetition);
  return app_times_.get(key, [&] {
    obs::PhaseProfiler::Scope scope(framework_.options().profiler, "measure");
    return run_app(app, config_.app_class, scenario,
                   static_cast<std::uint64_t>(repetition) * 13);
  });
}

double ExperimentDriver::class_s_time(const std::string& app,
                                      const scenario::Scenario& scenario) {
  const auto key = std::make_pair(app, std::string(scenario.name));
  return class_s_times_.get(key, [&] {
    return run_app(app, apps::NasClass::kS, scenario, /*seed_offset=*/7);
  });
}

const sig::Signature& ExperimentDriver::signature(const std::string& app,
                                                  double k) {
  return signatures_.get(std::make_pair(app, size_key(k)), [&] {
    util::log_info() << "compressing " << app << " for K=" << k;
    return framework_.make_signature(app_trace(app), k);
  });
}

const skeleton::Skeleton& ExperimentDriver::skeleton_for_size(
    const std::string& app, double size_seconds) {
  return skeletons_.get(std::make_pair(app, size_key(size_seconds)), [&] {
    const trace::Trace& trace = app_trace(app);
    const double k = std::max(1.0, trace.elapsed() / size_seconds);
    return framework_.make_consistent_skeleton(trace, k);
  });
}

double ExperimentDriver::observe_app(const std::string& app,
                                     const scenario::Scenario& scenario,
                                     obs::Recorder& recorder) {
  recorder.metrics().set_info("app", app);
  recorder.metrics().set_info("class", apps::class_name(config_.app_class));
  return framework_.run_app(program(app, config_.app_class), scenario,
                            /*seed_offset=*/0, &recorder);
}

double ExperimentDriver::observe_skeleton(const std::string& app,
                                          double size_seconds,
                                          const scenario::Scenario& scenario,
                                          obs::Recorder& recorder) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);
  recorder.metrics().set_info("app", app + "-skeleton");
  recorder.metrics().set_info("class", apps::class_name(config_.app_class));
  // The seed of skeleton_time's first repetition, so the instrumented
  // timeline matches the first measured cell exactly.
  return framework_.run_skeleton(skel, scenario,
                                 skeleton_seed_offset(size_seconds, 0), {},
                                 &recorder);
}

double ExperimentDriver::skeleton_time(const std::string& app,
                                       double size_seconds,
                                       const scenario::Scenario& scenario,
                                       int repetition) {
  const auto key = std::make_tuple(app, size_key(size_seconds),
                                   std::string(scenario.name), repetition);
  return skeleton_times_.get(key, [&] {
    const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);
    obs::PhaseProfiler::Scope scope(framework_.options().profiler, "measure");
    return framework_.run_skeleton(
        skel, scenario, skeleton_seed_offset(size_seconds, repetition));
  });
}

const skeleton::GoodSkeletonEstimate& ExperimentDriver::good_estimate(
    const std::string& app) {
  return good_estimates_.get(app, [&] {
    // Reference compression: at least as deep as the smallest configured
    // skeleton (and never shallower than a 0.5 s one), so the dominant loop
    // structure is visible regardless of which sizes the caller requested.
    double min_size = 0.5;
    for (double size : config_.skeleton_sizes) {
      min_size = std::min(min_size, size);
    }
    const double k = std::max(1.0, app_trace(app).elapsed() / min_size);
    return skeleton::estimate_good_skeleton(signature(app, k));
  });
}

PredictionRecord ExperimentDriver::predict(
    const std::string& app, double size_seconds,
    const scenario::Scenario& scenario) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);

  PredictionRecord record;
  record.app = app;
  record.target_size = size_seconds;
  record.scenario = scenario.name;
  record.scaling_factor = skel.scaling_factor;
  const skeleton::GoodSkeletonEstimate& estimate = good_estimate(app);
  record.min_good_time = estimate.min_good_time;
  record.good = skel.intended_time >= estimate.min_good_time;
  record.app_dedicated = app_trace(app).elapsed();
  record.skeleton_dedicated =
      skeleton_time(app, size_seconds, scenario::dedicated());

  skeleton::Calibration calibration;
  calibration.app_dedicated_time = record.app_dedicated;
  calibration.skeleton_dedicated_time = record.skeleton_dedicated;

  // Average the prediction error over independent measurement pairs; the
  // reported times are the first pair's (representative sample).
  const int repetitions = std::max(1, config_.repetitions);
  double error_sum = 0;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    const double skeleton_scenario =
        skeleton_time(app, size_seconds, scenario, repetition);
    const double app_scenario = app_time(app, scenario, repetition);
    const double predicted =
        skeleton::predict_app_time(calibration, skeleton_scenario);
    error_sum +=
        skeleton::prediction_error_percent(predicted, app_scenario);
    if (repetition == 0) {
      record.skeleton_scenario = skeleton_scenario;
      record.app_scenario = app_scenario;
      record.predicted = predicted;
    }
  }
  record.error_percent = error_sum / repetitions;
  return record;
}

std::vector<GridCell> ExperimentDriver::grid_cells() const {
  std::vector<GridCell> cells;
  cells.reserve(config_.benchmarks.size() * config_.skeleton_sizes.size() *
                scenario::paper_scenarios().size());
  for (const std::string& app : config_.benchmarks) {
    for (double size : config_.skeleton_sizes) {
      for (const scenario::Scenario& scenario : scenario::paper_scenarios()) {
        cells.push_back(GridCell{app, size, &scenario});
      }
    }
  }
  return cells;
}

std::vector<PredictionRecord> ExperimentDriver::predict_cells(
    const std::vector<GridCell>& cells) {
  // Every value the cells need, deepest dependency first: the pool claims
  // tasks in list order, so a task only waits on a memo while an earlier
  // task is still computing it.  Duplicates are dropped here rather than
  // left to block a worker on the memo.
  std::vector<std::function<void()>> tasks;
  std::set<std::string> traced;
  for (const GridCell& cell : cells) {
    if (traced.insert(cell.app).second) {
      tasks.emplace_back([this, &cell] { app_trace(cell.app); });
    }
  }
  std::set<std::pair<std::string, long long>> built;
  std::set<std::string> estimated;
  for (const GridCell& cell : cells) {
    if (built.emplace(cell.app, size_key(cell.size_seconds)).second) {
      tasks.emplace_back(
          [this, &cell] { skeleton_for_size(cell.app, cell.size_seconds); });
    }
    if (estimated.insert(cell.app).second) {
      tasks.emplace_back([this, &cell] { good_estimate(cell.app); });
    }
  }
  const int repetitions = std::max(1, config_.repetitions);
  std::set<std::pair<std::string, long long>> calibrated;
  std::set<std::pair<std::string, std::string>> app_runs;
  for (const GridCell& cell : cells) {
    if (calibrated.emplace(cell.app, size_key(cell.size_seconds)).second) {
      tasks.emplace_back([this, &cell] {
        skeleton_time(cell.app, cell.size_seconds, scenario::dedicated());
      });
    }
    const bool run_app = app_runs.emplace(cell.app, cell.scenario->name).second;
    for (int repetition = 0; repetition < repetitions; ++repetition) {
      tasks.emplace_back([this, &cell, repetition] {
        skeleton_time(cell.app, cell.size_seconds, *cell.scenario, repetition);
      });
      if (run_app) {
        tasks.emplace_back([this, &cell, repetition] {
          app_time(cell.app, *cell.scenario, repetition);
        });
      }
    }
  }
  runner::SweepOptions sweep_options;
  sweep_options.jobs = config_.jobs;
  sweep_options.profiler = &phases_;
  runner::sweep(
      tasks.size(), [&](std::size_t i) { tasks[i](); }, sweep_options);

  // All memo hits from here on.
  std::vector<PredictionRecord> records;
  records.reserve(cells.size());
  for (const GridCell& cell : cells) {
    records.push_back(predict(cell.app, cell.size_seconds, *cell.scenario));
  }
  return records;
}

std::vector<PredictionRecord> ExperimentDriver::run_grid() {
  return predict_cells(grid_cells());
}

trace::ActivityBreakdown ExperimentDriver::app_activity(
    const std::string& app) {
  return trace::activity_breakdown(app_trace(app));
}

trace::ActivityBreakdown ExperimentDriver::skeleton_activity(
    const std::string& app, double size_seconds) {
  const skeleton::Skeleton& skel = skeleton_for_size(app, size_seconds);
  sim::ClusterConfig cluster = config_.framework.cluster;
  cluster.seed = config_.framework.dedicated_seed;
  sim::Machine machine(cluster);
  mpi::World world(machine, config_.framework.ranks,
                   config_.framework.mpi);
  const trace::Trace trace = trace::record_run(
      world, skeleton::skeleton_program(skel), app + "-skeleton");
  return trace::activity_breakdown(trace);
}

PredictionRecord ExperimentDriver::predict_with_class_s(
    const std::string& app, const scenario::Scenario& scenario) {
  PredictionRecord record;
  record.app = app;
  record.scenario = scenario.name;
  record.app_dedicated = app_time(app, scenario::dedicated());
  record.skeleton_dedicated = class_s_time(app, scenario::dedicated());
  record.skeleton_scenario = class_s_time(app, scenario);
  record.app_scenario = app_time(app, scenario);

  skeleton::Calibration calibration;
  calibration.app_dedicated_time = record.app_dedicated;
  calibration.skeleton_dedicated_time = record.skeleton_dedicated;
  record.predicted =
      skeleton::predict_app_time(calibration, record.skeleton_scenario);
  record.error_percent = skeleton::prediction_error_percent(
      record.predicted, record.app_scenario);
  return record;
}

PredictionRecord ExperimentDriver::predict_with_average(
    const std::string& app, const scenario::Scenario& scenario) {
  double slowdown_sum = 0;
  for (const std::string& other : config_.benchmarks) {
    slowdown_sum +=
        app_time(other, scenario) / app_time(other, scenario::dedicated());
  }
  const double mean_slowdown =
      slowdown_sum / static_cast<double>(config_.benchmarks.size());

  PredictionRecord record;
  record.app = app;
  record.scenario = scenario.name;
  record.app_dedicated = app_time(app, scenario::dedicated());
  record.app_scenario = app_time(app, scenario);
  record.predicted = record.app_dedicated * mean_slowdown;
  record.error_percent = skeleton::prediction_error_percent(
      record.predicted, record.app_scenario);
  return record;
}

double mean_error(const std::vector<PredictionRecord>& records) {
  if (records.empty()) return 0;
  double sum = 0;
  for (const PredictionRecord& record : records) sum += record.error_percent;
  return sum / static_cast<double>(records.size());
}

}  // namespace psk::core
