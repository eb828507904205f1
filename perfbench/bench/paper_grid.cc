// paper_grid: the paper's Figure 6 evaluation at NAS class B -- every
// benchmark x skeleton size x sharing scenario, default repetitions --
// with the default in-memory result cache and a fixed job count.
//
// Unit of work: one full grid on a fresh driver and cache.  The seed moves
// the dedicated and scenario seeds, so each seed is a different sample of
// the fluttering shared environment.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "apps/nas.h"
#include "cache/cache.h"
#include "core/experiment.h"
#include "scenario/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace psk;

core::ExperimentConfig make_config(std::uint64_t seed, int jobs) {
  core::ExperimentConfig config;
  config.jobs = jobs;
  config.framework.dedicated_seed = 1 + mix64(seed) % 1000;
  config.framework.scenario_seed = 1000 + mix64(seed ^ 0x5eed) % 1000000;
  config.framework.result_cache = std::make_shared<cache::ResultCache>();
  return config;
}

std::uint64_t fnv(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Bitwise digest of every field of every record, in grid order.
std::uint64_t digest(const std::vector<core::PredictionRecord>& records) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const core::PredictionRecord& r : records) {
    hash = fnv(hash, r.app.data(), r.app.size());
    hash = fnv(hash, r.scenario.data(), r.scenario.size());
    for (const double value :
         {r.target_size, r.scaling_factor, r.app_dedicated,
          r.skeleton_dedicated, r.skeleton_scenario, r.app_scenario,
          r.predicted, r.error_percent, r.min_good_time}) {
      hash = fnv(hash, &value, sizeof value);
    }
    const unsigned char good = r.good ? 1 : 0;
    hash = fnv(hash, &good, 1);
  }
  return hash;
}

/// The two Figure 6 shape checks, on the grid's 10-second skeletons.
/// Returns an empty string when both hold, else the failed check.
std::string shape_check(const std::vector<core::PredictionRecord>& records,
                        double size) {
  std::map<std::string, std::pair<double, int>> by_scenario;
  for (const core::PredictionRecord& r : records) {
    if (r.target_size != size) continue;
    auto& [sum, count] = by_scenario[r.scenario];
    sum += r.error_percent;
    ++count;
  }
  const auto mean = [&](const char* name) {
    const auto& [sum, count] = by_scenario[name];
    return count > 0 ? sum / count : 0.0;
  };
  if (!(mean("cpu-one-node") > mean("cpu-all-nodes"))) {
    return "unbalanced cpu-one-node error is not above balanced "
           "cpu-all-nodes";
  }
  const double net =
      (mean("net-one-link") + mean("net-all-links") + mean("cpu-and-net")) / 3;
  const double cpu = (mean("cpu-one-node") + mean("cpu-all-nodes")) / 2;
  if (!(net > cpu)) {
    return "scenarios with competing traffic are not above cpu-only ones";
  }
  return "";
}

struct GridUnit {
  double wall_s = 0;
  std::vector<core::PredictionRecord> records;
  std::map<std::string, obs::PhaseProfiler::Phase> phases;
  cache::CacheStats cache;
  std::size_t trace_events = 0;
  std::uint64_t allocations = 0;
};

/// One full grid on a fresh driver.  The driver is handed back so the
/// traced pass can replay single simulations from its cached skeletons.
GridUnit run_unit(const core::ExperimentConfig& base, bool count_allocs,
                  std::unique_ptr<core::ExperimentDriver>* keep = nullptr) {
  core::ExperimentConfig config = base;
  config.framework.result_cache = std::make_shared<cache::ResultCache>();
  auto driver = std::make_unique<core::ExperimentDriver>(config);
  GridUnit unit;
  {
    std::unique_ptr<AllocWindow> window;
    if (count_allocs) window = std::make_unique<AllocWindow>();
    const double start = now_seconds();
    unit.records = driver->run_grid();
    unit.wall_s = now_seconds() - start;
    if (window) unit.allocations = window->count();
  }
  unit.phases = driver->phases().snapshot();
  unit.cache = config.framework.result_cache->stats();
  for (const std::string& app : config.benchmarks) {
    unit.trace_events += driver->app_trace(app).event_count();
  }
  if (keep != nullptr) *keep = std::move(driver);
  return unit;
}

void check_unit(const GridUnit& unit, const core::ExperimentConfig& config,
                std::uint64_t expected_digest, Outcome& out) {
  const std::size_t cells = config.benchmarks.size() *
                            config.skeleton_sizes.size() *
                            scenario::paper_scenarios().size();
  out.attempted += cells;
  if (unit.records.size() != cells) {
    out.fail("grid returned " + std::to_string(unit.records.size()) +
                 " records, expected " + std::to_string(cells),
             cells);
    return;
  }
  for (const core::PredictionRecord& r : unit.records) {
    if (!std::isfinite(r.error_percent) || r.error_percent < 0 ||
        !(r.app_scenario > 0) || !(r.skeleton_scenario > 0)) {
      out.fail("non-finite or non-positive value in cell " + r.app + "/" +
               r.scenario);
    }
  }
  double largest = 0;
  for (const double size : config.skeleton_sizes) {
    largest = std::max(largest, size);
  }
  const std::string shape = shape_check(unit.records, largest);
  if (!shape.empty()) out.fail("fig6 shape check: " + shape, cells);
  if (digest(unit.records) != expected_digest) {
    out.fail("record digest differs between grids of the same seed", cells);
  }
}

double phase_seconds(const GridUnit& unit, const char* name) {
  const auto it = unit.phases.find(name);
  return it == unit.phases.end() ? 0.0 : it->second.seconds;
}

double phase_calls(const GridUnit& unit, const char* name) {
  const auto it = unit.phases.find(name);
  return it == unit.phases.end() ? 0.0
                                 : static_cast<double>(it->second.calls);
}

/// Set-up: the seeded configuration, a driver with its cache, and one
/// dedicated class-S trace per benchmark so code and allocator are warm.
double setup_once(std::uint64_t seed, int jobs) {
  const double start = now_seconds();
  core::ExperimentConfig config = make_config(seed, jobs);
  core::ExperimentDriver driver(config);
  std::size_t events = 0;
  for (const std::string& app : config.benchmarks) {
    events += driver.framework()
                  .record(apps::find_benchmark(app).make(apps::NasClass::kS),
                          app)
                  .event_count();
  }
  const double elapsed = now_seconds() - start;
  return events > 0 ? elapsed : -1;
}

/// Serially times single simulations of the grid's own skeletons and
/// applications, outside any pool, for the per-run latency distribution.
std::vector<double> sample_runs_ms(core::ExperimentDriver& driver) {
  core::FrameworkOptions options = driver.config().framework;
  options.result_cache = nullptr;
  options.profiler = nullptr;
  const core::SkeletonFramework framework(options);
  std::vector<double> samples;
  const auto& config = driver.config();
  for (const std::string& app : config.benchmarks) {
    for (const double size : config.skeleton_sizes) {
      const skeleton::Skeleton& skeleton = driver.skeleton_for_size(app, size);
      for (const scenario::Scenario& scenario : scenario::paper_scenarios()) {
        const double start = now_seconds();
        framework.run_skeleton(skeleton, scenario, /*seed_offset=*/1);
        samples.push_back((now_seconds() - start) * 1e3);
      }
    }
    const double start = now_seconds();
    framework.run_app(apps::find_benchmark(app).make(config.app_class),
                      scenario::paper_scenarios()[0]);
    samples.push_back((now_seconds() - start) * 1e3);
  }
  return samples;
}

}  // namespace

Outcome run_paper_grid(const RunOptions& options) {
  Outcome out;
  const int jobs = options.load_threads;
  const core::ExperimentConfig config = make_config(options.seed, jobs);
  out.notes.push_back("paper_grid: NAS class B, " +
                      std::to_string(config.benchmarks.size()) + " apps x " +
                      std::to_string(config.skeleton_sizes.size()) +
                      " sizes x 5 scenarios, " +
                      std::to_string(config.repetitions) +
                      " repetitions, jobs=" + std::to_string(jobs));

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double setup = setup_once(options.seed, jobs);
    if (setup < 0) out.fail("set-up traces were empty");
    setups.push_back(setup);
  }

  // Untraced: grids until the budget is spent, at least two so the digest
  // can be compared.  Traced: one untraced grid as the overhead baseline,
  // then one counted grid whose driver the per-run sampler reuses.
  std::vector<GridUnit> units;
  std::unique_ptr<core::ExperimentDriver> traced_driver;
  const double start = now_seconds();
  while (units.size() < 2 ||
         (!options.trace && now_seconds() - start < options.seconds)) {
    const bool counted = options.trace && units.size() == 1;
    units.push_back(
        run_unit(config, counted, counted ? &traced_driver : nullptr));
    check_unit(units.back(), config, digest(units.front().records), out);
  }

  std::vector<double> walls;
  std::string samples = "paper_grid: grid times (s):";
  for (const GridUnit& unit : units) {
    walls.push_back(unit.wall_s);
    samples += " " + std::to_string(unit.wall_s);
  }
  out.notes.push_back(samples);
  const double grid_s = percentile(walls, kTimeQuantile);
  const double cells = static_cast<double>(units.front().records.size());
  out.notes.push_back("paper_grid: " + std::to_string(units.size()) +
                      " grid(s), grid_s " + std::to_string(grid_s) +
                      ", mean error " +
                      std::to_string(core::mean_error(units.front().records)) +
                      "%");

  if (!options.trace) {
    out.metrics["setup_s"] = median(setups);
    out.metrics["wall_s"] = grid_s;
    out.metrics["ops_per_s"] = cells / grid_s;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  const GridUnit& unit = units[1];
  auto& m = out.metrics;
  m["trace.record_s"] = phase_seconds(unit, "record");
  m["trace.fold_s"] = phase_seconds(unit, "fold");
  m["trace.events"] = static_cast<double>(unit.trace_events);
  m["sig.cluster_s"] = phase_seconds(unit, "cluster");
  m["sig.compress_s"] = phase_seconds(unit, "compress");
  // Every threshold attempt clusters each rank once; the grid builds one
  // signature per (app, size) plus one reference signature per app.
  const double signatures = static_cast<double>(
      config.benchmarks.size() * (config.skeleton_sizes.size() + 1));
  m["sig.attempts_per_signature"] =
      phase_calls(unit, "cluster") / config.framework.ranks / signatures;
  m["skeleton.scale_s"] = phase_seconds(unit, "scale");
  m["skeleton.built"] = phase_calls(unit, "scale");
  m["core.measure_s"] = phase_seconds(unit, "measure");
  m["core.sim_runs"] = static_cast<double>(unit.cache.misses);
  m["core.mean_error_pct"] = core::mean_error(unit.records);
  const std::vector<double> runs_ms = sample_runs_ms(*traced_driver);
  m["core.run_p50_ms"] = percentile(runs_ms, 50);
  m["core.run_p95_ms"] = percentile(runs_ms, 95);
  const double sweep_s = phase_seconds(unit, "sweep");
  m["runner.sweep_s"] = sweep_s;
  const double worker_s = m["trace.record_s"] + m["trace.fold_s"] +
                          m["sig.cluster_s"] + m["sig.compress_s"] +
                          m["skeleton.scale_s"] + m["core.measure_s"];
  m["runner.busy_ratio"] = sweep_s > 0 ? worker_s / (jobs * sweep_s) : 0;
  m["cache.lookups"] = static_cast<double>(unit.cache.lookups);
  m["cache.hit_ratio"] = unit.cache.hit_rate();
  m["alloc.per_cell"] = static_cast<double>(unit.allocations) / cells;
  m["paper_grid.unattributed_s"] = unit.wall_s - sweep_s;
  m["perfbench.trace_overhead"] = unit.wall_s / units[0].wall_s - 1;
  out.notes.push_back(
      "paper_grid: traced grid " + std::to_string(unit.wall_s) +
      " s vs untraced " + std::to_string(units[0].wall_s) + " s; " +
      std::to_string(runs_ms.size()) + " serial runs sampled; allocation "
      "counts are multi-threaded and not expected to repeat exactly");
  return out;
}

}  // namespace perfbench
