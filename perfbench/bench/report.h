// Shared plumbing of the benchmark program: the run options every workload
// receives, the outcome it returns, the metric catalogue, and small
// statistics and clock helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring budget in seconds; each workload repeats its unit of work
  /// until the budget is spent (always at least the minimum it needs).
  double seconds = 10;
  /// 0 = end-to-end metrics, 1 = the traced pass with per-layer metrics.
  bool trace = false;
  /// Worker threads a workload may load the machine with (grid jobs, or
  /// service workers plus client threads).
  int load_threads = 1;
};

/// What one workload run produced.  `metrics` holds the workload's values by
/// metric name; names missing from it are reported as 0 (a layer the
/// workload never enters).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  /// Records a failed correctness check: the run is marked incorrect,
  /// `ops` operations count as failed and the reason is noted.
  void fail(const std::string& why, std::uint64_t ops = 1);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload's traced pass (trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Which sample of a run's unit times it reports: the lower quartile.
/// On a shared host, interference only ever slows a unit down, and it
/// comes in stretches of seconds; the faster quartile of a run's units
/// tracks the program, and the median across runs drops the noisy ones.
constexpr double kTimeQuantile = 25;
/// The matching sample of a run's windowed rates: the upper quartile.
constexpr double kRateQuantile = 75;

/// Steady-clock seconds.
double now_seconds();
/// Max resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Linear-interpolated percentile `q` in [0, 100] (0 when empty).
double percentile(std::vector<double> values, double q);
/// The tail percentile this many samples support: 99, or the highest
/// percentile that still has ten samples beyond it.
double tail_percentile(std::size_t samples);

/// splitmix64: the benchmark's one seeded mixer.
std::uint64_t mix64(std::uint64_t x);

/// Prints the machine block, the notes and the result line.
void print_outcome(const RunOptions& options, const Outcome& outcome);

}  // namespace perfbench
