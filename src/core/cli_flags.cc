#include "core/cli_flags.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

#include "cache/cache.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::core {

std::vector<std::string> simulation_flags(std::vector<std::string> extra) {
  for (const char* name :
       {"cache-dir", "cache-mem", "no-cache", "cache-stats", "topology"}) {
    extra.emplace_back(name);
  }
  return extra;
}

std::vector<std::string> experiment_flags(std::vector<std::string> extra) {
  for (const char* name :
       {"class", "sizes", "jobs", "verbose", "trace-out", "metrics-out",
        "obs-scenario", "phase-profile"}) {
    extra.emplace_back(name);
  }
  return simulation_flags(std::move(extra));
}

ExperimentConfig config_from_cli(const util::Cli& cli) {
  ExperimentConfig config;
  config.app_class = apps::class_from_name(cli.get("class", "B"));
  config.skeleton_sizes =
      util::parse_positive_doubles(cli.get("sizes", "10,5,2,1,0.5"),
                                   "--sizes");
  config.jobs = static_cast<int>(cli.get_int("jobs", 0));
  util::require(config.jobs >= 0, "--jobs must be >= 0");
  const std::string topology = cli.get("topology", "");
  if (!topology.empty()) {
    config.framework.cluster.topology = sim::TopologySpec::parse(topology);
  }
  if (!cli.get_bool("no-cache", false)) {
    cache::CacheOptions options;
    const std::int64_t entries = cli.get_int("cache-mem", 4096);
    util::require(entries >= 0, "--cache-mem must be >= 0");
    options.memory_entries = static_cast<std::size_t>(entries);
    options.disk_dir = cli.get("cache-dir", "");
    config.framework.result_cache =
        std::make_shared<cache::ResultCache>(options);
  }
  if (cli.get_bool("verbose", false)) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  return config;
}

ObsRequest obs_from_cli(const util::Cli& cli) {
  ObsRequest request;
  request.trace_out = cli.get("trace-out", "");
  request.metrics_out = cli.get("metrics-out", "");
  request.scenario =
      &scenario::find_scenario(cli.get("obs-scenario", "dedicated"));
  request.phase_profile = cli.get_bool("phase-profile", false);
  request.cache_stats = cli.get("cache-stats", "");
  return request;
}

void write_dumps(const obs::Recorder& recorder, double elapsed,
                 const ObsRequest& request) {
  if (!request.metrics_out.empty()) {
    recorder.write_metrics_file(request.metrics_out, elapsed);
    std::printf("metrics -> %s\n", request.metrics_out.c_str());
  }
  if (!request.trace_out.empty()) {
    recorder.write_trace_file(request.trace_out, elapsed);
    std::printf("trace -> %s (open in chrome://tracing)\n",
                request.trace_out.c_str());
  }
}

void report_cache_stats(const ObsRequest& request,
                        const cache::ResultCache* cache) {
  const std::string& where = request.cache_stats;
  if (where.empty() || cache == nullptr) return;
  const std::string text = cache::stats_kv(cache->stats());
  if (where == "true") {  // bare --cache-stats
    std::fprintf(stderr, "%s", text.c_str());
    return;
  }
  std::ofstream out(where);
  util::require(out.good(),
                [&] { return "--cache-stats: cannot open " + where; });
  out << text;
  std::fprintf(stderr, "cache stats -> %s\n", where.c_str());
}

void write_observability(ExperimentDriver& driver, const ObsRequest& request) {
  if (!request.trace_out.empty() || !request.metrics_out.empty()) {
    obs::Recorder recorder;
    const double elapsed = driver.observe_app(driver.config().benchmarks.at(0),
                                              *request.scenario, recorder);
    write_dumps(recorder, elapsed, request);
  }
  if (request.phase_profile) {
    std::fprintf(stderr, "%s", driver.phases().render().c_str());
  }
  report_cache_stats(request, driver.config().framework.result_cache.get());
}

}  // namespace psk::core
