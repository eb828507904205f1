#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void Outcome::fail(const std::string& why, std::uint64_t ops) {
  correct = false;
  failed += ops;
  notes.push_back("CHECK FAILED: " + why);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"wall_s", "s"},
      {"ops_per_s", "1/s"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"trace.record_s", "s"},
      {"trace.fold_s", "s"},
      {"trace.events", "count"},
      {"sig.cluster_s", "s"},
      {"sig.compress_s", "s"},
      {"sig.attempts_per_signature", "ratio"},
      {"skeleton.scale_s", "s"},
      {"skeleton.built", "count"},
      {"core.measure_s", "s"},
      {"core.sim_runs", "count"},
      {"core.run_p50_ms", "ms"},
      {"core.run_p95_ms", "ms"},
      {"core.mean_error_pct", "%"},
      {"runner.sweep_s", "s"},
      {"runner.busy_ratio", "ratio"},
      {"cache.lookups", "count"},
      {"cache.hit_ratio", "ratio"},
      {"sim.host_s.crossbar", "s"},
      {"sim.host_s.fattree", "s"},
      {"sim.host_s.dragonfly", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.queue_ns_per_event", "ns"},
      {"sim.stack_ns_per_event", "ns"},
      {"sim.net_share", "ratio"},
      {"svc.client_p50_ms.predict_hash", "ms"},
      {"svc.client_p99_ms.predict_hash", "ms"},
      {"svc.client_p50_ms.predict_upload", "ms"},
      {"svc.client_p99_ms.predict_upload", "ms"},
      {"svc.client_p50_ms.construct", "ms"},
      {"svc.client_p99_ms.construct", "ms"},
      {"svc.open_p50_ms", "ms"},
      {"svc.open_p99_ms", "ms"},
      {"svc.capacity_rps", "1/s"},
      {"svc.service_p50_ms", "ms"},
      {"svc.service_p99_ms", "ms"},
      {"svc.transport_ms", "ms"},
      {"svc.queue_depth_mean", "count"},
      {"svc.queue_high_water", "count"},
      {"svc.shed_ratio", "ratio"},
      {"svc.store_hit_ratio", "ratio"},
      {"svc.store_inserts", "count"},
      {"svc.gen_late_p99_ms", "ms"},
      {"archive.decode_us", "us"},
      {"alloc.per_cell", "count"},
      {"alloc.per_event", "count"},
      {"alloc.per_request", "count"},
      {"alloc.exact_repeat", "flag"},
      {"paper_grid.unattributed_s", "s"},
      {"scale_1024.unattributed_s", "s"},
      {"serve_mix.unattributed_s", "s"},
      {"perfbench.trace_overhead", "ratio"},
  };
  return metrics;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return percentile(values, 50); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = std::clamp(q, 0.0, 100.0) / 100.0 *
                          static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double tail_percentile(std::size_t samples) {
  if (samples <= 10) return 50;
  const double supported =
      100.0 * (1.0 - 10.0 / static_cast<double>(samples));
  return std::max(50.0, std::min(99.0, supported));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void print_outcome(const RunOptions& options, const Outcome& outcome) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "machine {\"nproc\": %ld, \"hardware_concurrency\": %u, \"cpu\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"load_threads\": %d}\n",
      online, std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(),
      json_string(__VERSION__).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), options.load_threads);
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  const std::vector<MetricDef>& catalogue =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& def : catalogue) {
    const auto it = outcome.metrics.find(def.name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(def.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(def.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(
          outcome.attempted, 1)),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
