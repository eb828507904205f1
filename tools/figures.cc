#include "tools/figures.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "core/cli_flags.h"
#include "core/coschedule.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "mpi/world.h"
#include "scenario/scenario.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "skeleton/skeleton.h"
#include "util/error.h"
#include "util/format.h"
#include "util/stats.h"
#include "util/table.h"

namespace psk::figures {
namespace {

struct Figure;

/// What an entry runs on.  `driver` is shared by every entry of one
/// invocation and was built from `config`, the command-line configuration;
/// entries that change the configuration copy `config` and build their own
/// drivers from the copy (not from driver.config(), whose phase profiler
/// points into the shared driver).
struct Context {
  const Figure& figure;
  core::ExperimentDriver& driver;
  const core::ExperimentConfig& config;
};

struct Figure {
  const char* name;
  const char* title;
  const char* description;
  void (*run)(const Context&);
};

/// The entry's header; `config` is the configuration the entry runs.
void print_banner(const Context& ctx, const core::ExperimentConfig& config) {
  std::printf("=== %s ===\n%s\n", ctx.figure.title, ctx.figure.description);
  std::printf(
      "setup: NAS class %s, 4 ranks on 4 dual-core nodes, %zu skeleton "
      "sizes\n\n",
      apps::class_name(config.app_class), config.skeleton_sizes.size());
}

// ----------------------------------------------------------- paper figures

// Figure 2: time spent by the NAS benchmarks and their skeletons in
// computation vs. MPI operations.
//
// "We compared the percentage of time spent in the communication (MPI)
// operations versus other computations for the skeletons and the
// application."  Expected shape: the ratio is broadly similar between each
// application and its skeletons, with more variation for the smallest
// skeletons.
//
// The preamble also verifies the section 4.3/3.1 claim that tracing
// overhead is well under 1%.
void fig2(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  core::ExperimentDriver& driver = ctx.driver;
  print_banner(ctx, config);

  // Tracing overhead check (section 3.1: "typically well under 1%").  Both
  // runs use the jitter-free controlled testbed so the delta is purely the
  // profiling library's per-call cost.
  std::printf("tracing overhead (traced vs untraced controlled run):\n");
  for (const std::string& app : config.benchmarks) {
    const double traced = driver.app_trace(app).elapsed();
    const double untraced = driver.framework().run_app_controlled(
        apps::find_benchmark(app).make(config.app_class));
    const double overhead = (traced - untraced) / untraced * 100.0;
    std::printf("  %-3s %8.2f s traced vs %8.2f s untraced -> %+.4f%%\n",
                app.c_str(), traced, untraced, overhead);
  }
  std::printf("\n");

  util::Table table({"program", "compute %", "MPI %"});
  for (const std::string& app : config.benchmarks) {
    const trace::ActivityBreakdown app_activity = driver.app_activity(app);
    table.add_row({app, util::fixed(app_activity.compute_fraction * 100, 1),
                   util::fixed(app_activity.mpi_fraction * 100, 1)});
    for (double size : config.skeleton_sizes) {
      const trace::ActivityBreakdown skel =
          driver.skeleton_activity(app, size);
      table.add_row({"  " + util::fixed(size, 1) + " sec skeleton",
                     util::fixed(skel.compute_fraction * 100, 1),
                     util::fixed(skel.mpi_fraction * 100, 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nshape check: each skeleton's MPI%% should be broadly similar to its "
      "application's\n(the paper notes moderate variation, largest for 0.5 s "
      "skeletons).\n");
}

// Figure 3: prediction error for the NAS benchmarks across skeleton sizes
// from 10 to 0.5 seconds, averaged across all resource sharing scenarios.
//
// Expected shape (paper): overall average error in the mid-to-high single
// digits ("a relatively low 6.7%"); no uniform size pattern, but the 0.5 s
// skeletons sit at or near the top of each benchmark's range.
//
// The preamble reports the similarity thresholds the compressor settled on
// (paper: always below 0.20 across the suite).
void fig3(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  core::ExperimentDriver& driver = ctx.driver;
  print_banner(ctx, config);
  const auto records = driver.run_grid();

  // Similarity thresholds used (section 3.2 validation).
  std::printf("similarity thresholds selected by the compressor:\n");
  for (const std::string& app : config.benchmarks) {
    double max_threshold = 0;
    for (double size : config.skeleton_sizes) {
      const double k = driver.app_trace(app).elapsed() / size;
      max_threshold =
          std::max(max_threshold, driver.signature(app, k).threshold);
    }
    std::printf("  %-3s max threshold %.2f %s\n", app.c_str(), max_threshold,
                max_threshold < 0.20 ? "(< .20, as in the paper)" : "");
  }
  std::printf("\n");

  // error[app][size] averaged over scenarios.
  std::map<std::string, std::map<double, util::RunningStats>> errors;
  util::RunningStats overall;
  for (const auto& record : records) {
    errors[record.app][record.target_size].add(record.error_percent);
    overall.add(record.error_percent);
  }

  std::vector<std::string> header{"benchmark"};
  for (double size : config.skeleton_sizes) {
    header.push_back(util::fixed(size, 1) + "s skel err%");
  }
  util::Table table(header);
  for (const std::string& app : config.benchmarks) {
    std::vector<double> row;
    for (double size : config.skeleton_sizes) {
      row.push_back(errors[app][size].mean());
    }
    table.add_row_numeric(app, row, 1);
  }
  {
    std::vector<double> row;
    for (double size : config.skeleton_sizes) {
      util::RunningStats per_size;
      for (const std::string& app : config.benchmarks) {
        per_size.add(errors[app][size].mean());
      }
      row.push_back(per_size.mean());
    }
    table.add_row_numeric("Average", row, 1);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\noverall average prediction error: %.1f%% (paper: 6.7%%)\n",
              overall.mean());
}

// Figure 4 (table): estimated minimum execution time of the smallest
// "good" skeleton for each benchmark (section 3.4).
//
// A skeleton is good when it contains at least one full iteration of the
// application's dominant execution sequence; the minimum is that sequence's
// per-iteration time.  Paper values (for their testbed): BT 1.01 s,
// CG 0.13 s, IS 3 s, LU 1.97 s, MG 0.34 s, SP 0.34 s.  Expected shape: CG
// smallest by an order of magnitude (its dominant sequence is the inner CG
// iteration); IS largest (one full alltoallv round is required).
void fig4(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  util::Table table({"application", "smallest skeleton", "dominant coverage",
                     "flagged sizes"});
  for (const std::string& app : config.benchmarks) {
    const auto& estimate = ctx.driver.good_estimate(app);
    std::string flagged;
    for (double size : config.skeleton_sizes) {
      if (size < estimate.min_good_time) {
        if (!flagged.empty()) flagged += ", ";
        flagged += util::fixed(size, 1) + "s";
      }
    }
    table.add_row({app, util::fixed(estimate.min_good_time, 2) + " sec",
                   util::percent(estimate.dominant_coverage),
                   flagged.empty() ? "-" : flagged});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nshape check: CG smallest (inner-iteration loop dominates), IS "
      "largest (one full\nall-to-all exchange required), LU in between -- "
      "as in the paper's table.\n");
}

// Figure 5: the same grid as Figure 3, grouped by skeleton size: per size,
// the prediction error of every benchmark plus the suite average.
//
// Expected shape (paper): no uniform pattern, but the number of cases with
// relatively large error grows as skeletons shrink, clearly highest for the
// 0.5 second skeletons; skeletons flagged "not good" by the framework
// account for the worst cases.
void fig5(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);
  const auto records = ctx.driver.run_grid();

  std::map<double, std::map<std::string, util::RunningStats>> errors;
  std::map<double, std::map<std::string, bool>> flagged;
  for (const auto& record : records) {
    errors[record.target_size][record.app].add(record.error_percent);
    flagged[record.target_size][record.app] = !record.good;
  }

  std::vector<std::string> header{"skeleton size"};
  for (const std::string& app : config.benchmarks) header.push_back(app);
  header.push_back("Average");
  util::Table table(header);
  for (double size : config.skeleton_sizes) {
    std::vector<std::string> row{util::fixed(size, 1) + " sec"};
    util::RunningStats average;
    for (const std::string& app : config.benchmarks) {
      const double err = errors[size][app].mean();
      average.add(err);
      std::string cell = util::fixed(err, 1);
      if (flagged[size][app]) cell += "*";
      row.push_back(cell);
    }
    row.push_back(util::fixed(average.mean(), 1));
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\n(* = flagged 'not good' by the framework: the skeleton is smaller "
      "than the\n     estimated smallest good skeleton of Figure 4)\n");
}

// Figure 6: prediction error for the NAS benchmarks across the five
// resource sharing scenarios, using the representative 10 second skeletons.
//
// Expected shape (paper): error is higher for scenarios that include
// competing network traffic (communication operations cannot be scaled down
// linearly), and for "unbalanced" sharing of a single node versus balanced
// sharing of all nodes.
void fig6(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  // Only the largest configured size is used (the paper uses 10 s).
  double size = config.skeleton_sizes.empty() ? 10.0
                                              : config.skeleton_sizes.front();
  for (double s : config.skeleton_sizes) size = std::max(size, s);
  print_banner(ctx, config);

  // One cell per scenario x benchmark, evaluated across the runner pool;
  // records come back in cell order.
  std::vector<core::GridCell> cells;
  for (const auto& scenario : scenario::paper_scenarios()) {
    for (const std::string& app : config.benchmarks) {
      cells.push_back(core::GridCell{app, size, &scenario});
    }
  }
  const auto records = ctx.driver.predict_cells(cells);

  std::vector<std::string> header{"scenario"};
  for (const std::string& app : config.benchmarks) header.push_back(app);
  header.push_back("Average");
  util::Table table(header);

  std::map<std::string, double> scenario_means;
  std::size_t next = 0;
  for (const auto& scenario : scenario::paper_scenarios()) {
    std::vector<std::string> row{scenario.name};
    util::RunningStats average;
    for (std::size_t i = 0; i < config.benchmarks.size(); ++i) {
      const core::PredictionRecord& record = records[next++];
      average.add(record.error_percent);
      row.push_back(util::fixed(record.error_percent, 1));
    }
    scenario_means[scenario.name] = average.mean();
    row.push_back(util::fixed(average.mean(), 1));
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nshape checks:\n");
  std::printf("  unbalanced cpu-one-node (%.1f%%) vs balanced cpu-all-nodes "
              "(%.1f%%): %s\n",
              scenario_means["cpu-one-node"], scenario_means["cpu-all-nodes"],
              scenario_means["cpu-one-node"] >
                      scenario_means["cpu-all-nodes"]
                  ? "higher, as in the paper"
                  : "NOT higher (paper expects higher)");
  const double net = (scenario_means["net-one-link"] +
                      scenario_means["net-all-links"] +
                      scenario_means["cpu-and-net"]) /
                     3.0;
  const double cpu = (scenario_means["cpu-one-node"] +
                      scenario_means["cpu-all-nodes"]) /
                     2.0;
  std::printf("  scenarios with competing traffic (%.1f%%) vs cpu-only "
              "(%.1f%%): %s\n",
              net, cpu,
              net > cpu ? "higher, as in the paper"
                        : "NOT higher (paper expects higher)");
}

// Figure 7: minimum, maximum and average prediction error for the NAS suite
// under the combined scenario (competing process on one node and traffic on
// one link), comparing:
//   - automatically constructed skeletons of each size (10 .. 0.5 s),
//   - the Class S benchmarks used as hand-made skeletons,
//   - the suite-average-slowdown predictor.
//
// Expected shape (paper): every skeleton size beats both baselines by a
// wide margin; even the 0.5 s skeletons -- which run about as long as the
// Class S codes -- are clearly superior, proving that a customized skeleton
// is required and that a scaled-down input deck is not a substitute.
void fig7(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  core::ExperimentDriver& driver = ctx.driver;
  print_banner(ctx, config);
  const auto& scenario = scenario::find_scenario("cpu-and-net");

  util::Table table({"prediction methodology", "MIN err%", "AVG err%",
                     "MAX err%"});

  // All skeleton cells fan out across the runner pool up front; the loops
  // below consume the records in cell order.
  std::vector<core::GridCell> cells;
  for (double size : config.skeleton_sizes) {
    for (const std::string& app : config.benchmarks) {
      cells.push_back(core::GridCell{app, size, &scenario});
    }
  }
  const auto records = driver.predict_cells(cells);

  double best_skeleton_avg = 1e30;
  std::size_t next = 0;
  for (double size : config.skeleton_sizes) {
    std::vector<double> errors;
    for (std::size_t i = 0; i < config.benchmarks.size(); ++i) {
      errors.push_back(records[next++].error_percent);
    }
    const util::Summary summary = util::summarize(errors);
    best_skeleton_avg = std::min(best_skeleton_avg, summary.mean);
    table.add_row_numeric(util::fixed(size, 1) + " sec skeleton",
                          {summary.min, summary.mean, summary.max}, 1);
  }

  std::vector<double> class_s_errors;
  for (const std::string& app : config.benchmarks) {
    class_s_errors.push_back(
        driver.predict_with_class_s(app, scenario).error_percent);
  }
  const util::Summary class_s = util::summarize(class_s_errors);
  table.add_row_numeric("Class S as skeleton",
                        {class_s.min, class_s.mean, class_s.max}, 1);

  std::vector<double> average_errors;
  for (const std::string& app : config.benchmarks) {
    average_errors.push_back(
        driver.predict_with_average(app, scenario).error_percent);
  }
  const util::Summary average = util::summarize(average_errors);
  table.add_row_numeric("Average prediction",
                        {average.min, average.mean, average.max}, 1);

  std::printf("%s", table.render().c_str());
  std::printf("\nshape checks:\n");
  std::printf("  best skeleton avg %.1f%% vs Class S avg %.1f%%: %s\n",
              best_skeleton_avg, class_s.mean,
              best_skeleton_avg < class_s.mean
                  ? "skeletons win, as in the paper"
                  : "NOT winning (paper expects a wide margin)");
  std::printf("  best skeleton avg %.1f%% vs Average prediction avg %.1f%%: "
              "%s\n",
              best_skeleton_avg, average.mean,
              best_skeleton_avg < average.mean
                  ? "skeletons win, as in the paper"
                  : "NOT winning (paper expects a wide margin)");
}

// --------------------------------------------------------------- ablations

// Ablation: eager/rendezvous threshold of the virtual MPI runtime.
//
// Scaling residual messages down by K can move them across the
// eager/rendezvous boundary, changing their latency behaviour relative to
// the application's -- one of the sources of the paper's "communication
// operations cannot be scaled down linearly" error.  This sweeps the
// threshold and reports how faithfully each skeleton's dedicated runtime
// tracks its intended runtime, plus the prediction error under the
// network-sharing scenario.
void ablate_eager_threshold(const Context& ctx) {
  core::ExperimentConfig base = ctx.config;
  base.benchmarks = {"IS", "LU"};
  base.skeleton_sizes = {1.0};
  print_banner(ctx, base);

  util::Table table({"eager threshold", "app", "intended s", "dedicated s",
                     "ratio", "net-one-link err%"});
  for (const mpi::Bytes threshold :
       {mpi::Bytes{1} << 10, mpi::Bytes{1} << 14, mpi::Bytes{1} << 16,
        mpi::Bytes{1} << 18}) {
    core::ExperimentConfig config = base;
    config.framework.mpi.eager_threshold = threshold;
    core::ExperimentDriver driver(config);
    for (const std::string& app : config.benchmarks) {
      const core::PredictionRecord record = driver.predict(
          app, 1.0, scenario::find_scenario("net-one-link"));
      const auto& skeleton = driver.skeleton_for_size(app, 1.0);
      table.add_row({util::human_bytes(threshold), app,
                     util::fixed(skeleton.intended_time, 2),
                     util::fixed(record.skeleton_dedicated, 2),
                     util::fixed(record.skeleton_dedicated /
                                     skeleton.intended_time,
                                 2),
                     util::fixed(record.error_percent, 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: dedicated/intended ratios above 1 are latency that did "
      "not scale;\nthe effect shifts with the protocol switch point.\n");
}

// Ablation: the Q = K/2 compression-target heuristic.
//
// The paper sets the desired trace-to-signature compression ratio to half
// the scaling factor "based on our experience".  This sweeps the divisor: a
// larger Q (smaller divisor) forces more aggressive clustering (more
// information loss); a smaller Q keeps more structure but larger
// signatures (longer skeleton programs).
void ablate_compression_ratio(const Context& ctx) {
  core::ExperimentConfig base = ctx.config;
  base.benchmarks = {"SP", "MG"};
  base.skeleton_sizes = {1.0};
  print_banner(ctx, base);

  util::Table table({"divisor", "app", "threshold", "ratio", "leaves",
                     "avg err% (5 scenarios)"});
  for (const double divisor : {1.0, 2.0, 4.0, 8.0}) {
    core::ExperimentConfig config = base;
    config.framework.compression_ratio_divisor = divisor;
    core::ExperimentDriver driver(config);
    for (const std::string& app : config.benchmarks) {
      util::RunningStats errors;
      for (const auto& scenario : scenario::paper_scenarios()) {
        errors.add(driver.predict(app, 1.0, scenario).error_percent);
      }
      const double k = driver.app_trace(app).elapsed() / 1.0;
      const sig::Signature& signature = driver.signature(app, k);
      table.add_row({util::fixed(divisor, 0), app,
                     util::fixed(signature.threshold, 2),
                     util::fixed(signature.compression_ratio, 1),
                     std::to_string(signature.total_leaves()),
                     util::fixed(errors.mean(), 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: Q = K/2 (divisor 2) balances signature size against "
      "accuracy, matching\nthe paper's recommendation.\n");
}

// Ablation: the similarity threshold (paper section 3.2).
//
// Sweeps fixed clustering thresholds and reports the achieved compression
// ratio per benchmark -- the trade-off the iterative threshold search
// navigates ("a lower similarity threshold represents more strict rules for
// clustering, but will lead to less compression").  Also validates the
// paper's observation that thresholds below 0.20 suffice.
void ablate_similarity_threshold(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  const std::vector<double> thresholds = {0.0, 0.02, 0.05, 0.10,
                                          0.15, 0.20, 0.25};
  std::vector<std::string> header{"benchmark"};
  for (double t : thresholds) header.push_back("t=" + util::fixed(t, 2));
  util::Table table(header);

  for (const std::string& app : config.benchmarks) {
    const trace::Trace& trace = ctx.driver.app_trace(app);
    std::vector<double> row;
    for (double t : thresholds) {
      row.push_back(sig::compress_at_threshold(
                        trace, sig::ThresholdCompressOptions{t, {}})
                        .compression_ratio);
    }
    table.add_row_numeric(app, row, 1);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: ratios saturate well before t=0.20 for every code -- the "
      "paper's cap is safe.\nIS saturates at ~(iteration count) because its "
      "trace is short; the timestep codes\nreach two to three orders of "
      "magnitude.\n");
}

// Ablation: compute-duration averaging inside folded loops.
//
// Section 4.4 speculates that setting "the duration of compute operations
// within loops to their average duration across iterations" is why
// unbalanced scenarios predict worse, and proposes duration-distribution-
// aware construction as future work.  This compares the default (compute
// merges freely and is averaged) against duration-sensitive clustering
// (compute_weight = 1: phases of different duration stay in separate
// clusters, so less averaging occurs at the cost of larger signatures).
void ablate_compute_averaging(const Context& ctx) {
  core::ExperimentConfig base = ctx.config;
  base.benchmarks = {"SP", "CG", "MG"};
  base.skeleton_sizes = {2.0};
  print_banner(ctx, base);

  util::Table table({"clustering", "app", "leaves", "cpu-one-node err%",
                     "cpu-all-nodes err%"});
  for (const double compute_weight : {0.0, 1.0}) {
    core::ExperimentConfig config = base;
    config.framework.compress.compute_weight = compute_weight;
    core::ExperimentDriver driver(config);
    for (const std::string& app : config.benchmarks) {
      const core::PredictionRecord one = driver.predict(
          app, 2.0, scenario::find_scenario("cpu-one-node"));
      const core::PredictionRecord all = driver.predict(
          app, 2.0, scenario::find_scenario("cpu-all-nodes"));
      const double k = driver.app_trace(app).elapsed() / 2.0;
      table.add_row({compute_weight == 0.0 ? "free merge (default)"
                                           : "duration-sensitive",
                     app,
                     std::to_string(driver.signature(app, k).total_leaves()),
                     util::fixed(one.error_percent, 1),
                     util::fixed(all.error_percent, 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: duration-sensitive clustering produces larger signatures; "
      "its effect on\nunbalanced-scenario error shows how much the averaging "
      "approximation costs.\n");
}

// Ablation: byte scaling of residual communication operations.
//
// Section 3.3: scaling a message down by reducing its bytes "is not
// accurate ... by reducing the number of bytes exchanged we only reduce the
// message transfer time, leaving the latency component intact", but it is a
// "last resort" applied only to remainder iterations and unlooped
// operations.  This compares the paper's byte scaling against not scaling
// residual bytes at all, measuring how each skeleton's dedicated runtime
// tracks the intended runtime and the resulting prediction error.
void ablate_latency_scaling(const Context& ctx) {
  core::ExperimentConfig base = ctx.config;
  base.benchmarks = {"IS", "MG"};
  base.skeleton_sizes = {0.5};
  print_banner(ctx, base);

  util::Table table({"residual scaling", "app", "intended s", "dedicated s",
                     "net-all-links err%"});
  for (const bool scale_bytes : {true, false}) {
    core::ExperimentConfig config = base;
    config.framework.scale.scale_message_bytes = scale_bytes;
    core::ExperimentDriver driver(config);
    for (const std::string& app : config.benchmarks) {
      const core::PredictionRecord record = driver.predict(
          app, 0.5, scenario::find_scenario("net-all-links"));
      const auto& skeleton = driver.skeleton_for_size(app, 0.5);
      table.add_row({scale_bytes ? "bytes / K (paper)" : "full-size residuals",
                     app, util::fixed(skeleton.intended_time, 2),
                     util::fixed(record.skeleton_dedicated, 2),
                     util::fixed(record.error_percent, 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: full-size residuals inflate the skeleton's runtime (and "
      "over-weight\nbandwidth effects); bytes/K under-weights them but keeps "
      "the skeleton short --\nthe paper's trade-off.\n");
}

// Ablation: sensitivity of prediction error to environment volatility.
//
// The disturbance model (scheduler-unfairness flutter on loaded nodes,
// bandwidth flutter on shaped links) is the reproduction's stand-in for
// real-world measurement noise; its amplitudes were calibrated once to land
// in the paper's overall error band.  This sweeps the amplitudes to show
// the prediction error scales smoothly with volatility -- i.e. the headline
// numbers are not an artifact of one lucky setting -- and that the
// skeleton's advantage over the average-prediction baseline persists at
// every level.
void ablate_flutter(const Context& ctx) {
  core::ExperimentConfig base = ctx.config;
  base.benchmarks = {"CG", "MG", "IS"};
  base.skeleton_sizes = {2.0};
  print_banner(ctx, base);

  util::Table table({"amplitude scale", "skeleton avg err%",
                     "average-prediction avg err%"});
  for (const double scale : {0.0, 0.5, 1.0, 2.0}) {
    // A fresh driver per amplitude: the driver caches app times by scenario
    // name, and every amplitude keeps the name cpu-and-net.
    core::ExperimentDriver driver(base);
    scenario::Scenario scenario = scenario::find_scenario("cpu-and-net");
    scenario.cpu_flutter *= scale;
    scenario.net_flutter *= scale;

    util::RunningStats skeleton_errors;
    util::RunningStats baseline_errors;
    for (const std::string& app : base.benchmarks) {
      skeleton_errors.add(driver.predict(app, 2.0, scenario).error_percent);
      baseline_errors.add(
          driver.predict_with_average(app, scenario).error_percent);
    }
    table.add_row({util::fixed(scale, 1) + "x",
                   util::fixed(skeleton_errors.mean(), 1),
                   util::fixed(baseline_errors.mean(), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: at 0x the only noise is the +-2%% run jitter; error grows "
      "smoothly with\namplitude while the baseline's structural error "
      "dominates at every level.\n");
}

// -------------------------------------------------------------- extensions

// Extension (paper section 5): predicting across different node counts.
//
// The paper lists "scal[ing] predictions across different numbers of
// processors" as future work.  A first step that needs no new machinery:
// keep the rank count fixed and map ranks onto *fewer* nodes
// (oversubscription).  The skeleton is constructed once on the 4-node
// reference testbed, then executed on candidate clusters with 4, 2 and 1
// nodes; its slowdown there predicts the application's.
void ext_oversubscription(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  const auto run_on_nodes = [&](const mpi::RankMain& program, int nodes,
                                std::uint64_t seed) {
    sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed(nodes);
    cluster.topology = config.framework.cluster.topology;
    cluster.seed = seed;
    cluster.cpu_jitter = 0.02;
    cluster.net_jitter = 0.02;
    sim::Machine machine(cluster);
    machine.engine().set_time_limit(1e5);
    mpi::World world(machine, 4);  // ranks round-robin over the nodes
    world.launch(program);
    return world.run();
  };

  util::Table table({"app", "nodes", "skeleton s", "predicted", "actual",
                     "err%"});
  for (const char* app : {"SP", "CG", "MG"}) {
    core::SkeletonFramework framework(config.framework);
    const mpi::RankMain program =
        apps::find_benchmark(app).make(config.app_class);
    const trace::Trace trace = framework.record(program, app);
    const skeleton::Skeleton skeleton = framework.make_consistent_skeleton(
        trace, std::max(1.0, trace.elapsed() / 2.0));
    const mpi::RankMain skeleton_run = skeleton::skeleton_program(skeleton);

    skeleton::Calibration calibration;
    calibration.app_dedicated_time = trace.elapsed();
    calibration.skeleton_dedicated_time = run_on_nodes(skeleton_run, 4, 1);

    for (int nodes : {4, 2, 1}) {
      const double skeleton_time = run_on_nodes(skeleton_run, nodes, 11);
      const double predicted =
          skeleton::predict_app_time(calibration, skeleton_time);
      const double actual = run_on_nodes(program, nodes, 23);
      table.add_row({app, std::to_string(nodes),
                     util::fixed(skeleton_time, 2), util::fixed(predicted, 1),
                     util::fixed(actual, 1),
                     util::fixed(skeleton::prediction_error_percent(predicted,
                                                                    actual),
                                 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: intra-node messages ride the fast local channel, so "
      "oversubscribed\nplacements shift the compute/communication balance -- "
      "the skeleton tracks it\nbecause it reproduces both parts.\n");
}

// Extension (paper section 5): wide-area validation.
//
// "More experimentation, particularly on wide area networks is needed for
// stronger validation."  This re-runs the prediction experiment on a
// WAN-like testbed: 10 ms one-way latency and 10 MB/s links between sites.
// Latency-bound collectives dominate there, which stresses the skeleton's
// unscaled-latency approximation far harder than the cluster testbed.
void ext_wan(const Context& ctx) {
  core::ExperimentConfig config = ctx.config;
  config.skeleton_sizes = {10.0, 2.0};
  // WAN-like interconnect between the four "sites".
  config.framework.cluster.latency = 10e-3;
  config.framework.cluster.link_bandwidth_bps = 10e6;
  print_banner(ctx, config);
  core::ExperimentDriver driver(config);
  // Full grid through the runner pool; aggregate from the record list.
  const auto records = driver.run_grid();
  std::map<std::string, std::map<double, util::RunningStats>> by_cell;
  util::RunningStats overall;
  for (const auto& record : records) {
    by_cell[record.app][record.target_size].add(record.error_percent);
    overall.add(record.error_percent);
  }

  util::Table table({"app", "WAN dedicated s", "10s skel err%",
                     "2s skel err%"});
  for (const std::string& app : config.benchmarks) {
    std::vector<double> errors;
    for (double size : config.skeleton_sizes) {
      errors.push_back(by_cell[app][size].mean());
    }
    table.add_row({app,
                   util::fixed(driver.app_trace(app).elapsed(), 1),
                   util::fixed(errors[0], 1), util::fixed(errors[1], 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\noverall WAN average error: %.1f%% (cluster testbed: ~4%%; "
              "the latency-heavy\nenvironment degrades small skeletons "
              "hardest, as the paper anticipates).\n",
              overall.mean());
}

// Extension (paper section 4.4): duration-distribution-aware replay.
//
// "While constructing a skeleton we set the duration of compute operations
// within loops to their average duration across iterations.  A more
// accurate approach that considers frequency distribution of the duration
// of compute events will be taken in the future."
//
// The clustering stage already tracks each cluster's duration variance
// (Welford); ReplayOptions::sample_compute_distribution makes the skeleton
// draw each compute phase from that distribution instead of replaying the
// mean.  This measures whether distribution sampling helps in the
// unbalanced scenarios where section 4.4 blames the averaging.
void ext_duration_distribution(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  util::Table table({"app", "replay", "cpu-one-node err%",
                     "cpu-and-net err%"});
  for (const char* app : {"SP", "CG", "LU"}) {
    core::SkeletonFramework framework(config.framework);
    const mpi::RankMain program =
        apps::find_benchmark(app).make(config.app_class);
    const trace::Trace trace = framework.record(program, app);
    const skeleton::Skeleton skeleton = framework.make_consistent_skeleton(
        trace, std::max(1.0, trace.elapsed() / 2.0));

    for (const bool sample : {false, true}) {
      skeleton::ReplayOptions replay;
      replay.sample_compute_distribution = sample;

      skeleton::Calibration calibration;
      calibration.app_dedicated_time = trace.elapsed();
      calibration.skeleton_dedicated_time =
          framework.run_skeleton(skeleton, scenario::dedicated(), 0, replay);

      std::vector<std::string> row{app, sample ? "distribution" : "mean"};
      for (const char* name : {"cpu-one-node", "cpu-and-net"}) {
        const scenario::Scenario& scenario = scenario::find_scenario(name);
        const double skeleton_time =
            framework.run_skeleton(skeleton, scenario, 1, replay);
        const double predicted =
            skeleton::predict_app_time(calibration, skeleton_time);
        const double actual = framework.run_app(program, scenario);
        row.push_back(util::fixed(
            skeleton::prediction_error_percent(predicted, actual), 1));
      }
      table.add_row(row);
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: sampling restores the irregularity that averaging "
      "removed, which mostly\nmatters when one node's contention interacts "
      "with synchronization (unbalanced\nscenarios).\n");
}

// Extension: prediction under a co-scheduled parallel competitor.
//
// The paper's introduction argues that system-status-based prediction fails
// because the CPU time a process receives "depends on the synchronization
// structure of the parallel and distributed applications in the system".
// This makes that concrete: the competitor is not a synthetic spinner but
// another MPI job (with its own compute/communicate rhythm), both jobs
// time-slicing one core per node.
//
// Two predictors for the primary application's co-scheduled runtime:
//   share-based    dedicated time x 2   (each core runs 2 runnable jobs)
//   skeleton       measured scaling ratio x skeleton's co-scheduled time
// against the measured ground truth.
void ext_coscheduled(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  // One core per node: co-located ranks of the two jobs time-slice it.
  core::CoscheduleConfig cos;
  cos.cluster = sim::ClusterConfig::paper_testbed();
  cos.cluster.topology = config.framework.cluster.topology;
  cos.cluster.cores_per_node = 1;
  cos.cluster.cpu_jitter = 0.02;
  cos.cluster.net_jitter = 0.02;
  cos.cluster.seed = 77;

  util::Table table({"primary", "competitor", "actual s", "share-based",
                     "err%", "skeleton", "err%"});
  for (const char* primary_name : {"CG", "MG", "IS"}) {
    core::SkeletonFramework framework(config.framework);
    const mpi::RankMain primary =
        apps::find_benchmark(primary_name).make(config.app_class);
    const trace::Trace trace = framework.record(primary, primary_name);
    const skeleton::Skeleton skeleton = framework.make_consistent_skeleton(
        trace, std::max(1.0, trace.elapsed() / 5.0));
    const mpi::RankMain skeleton_run = skeleton::skeleton_program(skeleton);

    // Calibrate the skeleton on the same 1-core-per-node machine, idle.
    core::CoscheduleConfig idle = cos;
    const double skeleton_dedicated =
        core::run_coscheduled(idle, skeleton_run, 4,
                              [](mpi::Comm&) -> sim::Task { co_return; }, 4)
            .primary_time;
    const double app_dedicated =
        core::run_coscheduled(idle, primary, 4,
                              [](mpi::Comm&) -> sim::Task { co_return; }, 4)
            .primary_time;
    skeleton::Calibration calibration{app_dedicated, skeleton_dedicated};

    // Competitors with very different synchronization structures: BT is
    // compute-bound with rare bulky exchanges, LU is a fine-grained
    // latency-bound pipeline.
    for (const char* competitor_name : {"BT", "LU"}) {
      const mpi::RankMain competitor =
          apps::find_benchmark(competitor_name).make(config.app_class);

      const double actual =
          core::run_coscheduled(cos, primary, 4, competitor, 4).primary_time;
      const double share_based = app_dedicated * 2.0;
      const double skeleton_shared =
          core::run_coscheduled(cos, skeleton_run, 4, competitor, 4)
              .primary_time;
      const double skeleton_based =
          skeleton::predict_app_time(calibration, skeleton_shared);

      table.add_row(
          {primary_name, competitor_name, util::fixed(actual, 1),
           util::fixed(share_based, 1),
           util::fixed(skeleton::prediction_error_percent(share_based, actual),
                       1),
           util::fixed(skeleton_based, 1),
           util::fixed(
               skeleton::prediction_error_percent(skeleton_based, actual),
               1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: the share-based guess misses whenever the jobs' idle "
      "phases interleave\n(a communicating job donates its core); the "
      "skeleton experiences the competitor's\nrhythm directly and lands far "
      "closer -- the paper's core argument.\n");
}

// Extension: prediction for the extended benchmark suite (EP and FT).
//
// EP and FT are the two NPB MPI codes the paper did not evaluate.  They are
// the extremes of the spectrum: EP has essentially no communication, FT is
// alltoall-bound with enormous payloads.  A framework claiming generality
// should handle both; this runs the full prediction grid for them.
void ext_full_suite(const Context& ctx) {
  core::ExperimentConfig config = ctx.config;
  config.benchmarks = {"EP", "FT"};
  print_banner(ctx, config);
  core::ExperimentDriver driver(config);

  for (const std::string& app : config.benchmarks) {
    const auto activity = driver.app_activity(app);
    std::printf("%s: dedicated %.1f s, %s MPI\n", app.c_str(),
                driver.app_trace(app).elapsed(),
                util::percent(activity.mpi_fraction).c_str());
  }
  std::printf("\n");

  std::vector<std::string> header{"benchmark"};
  for (double size : config.skeleton_sizes) {
    header.push_back(util::fixed(size, 1) + "s err%");
  }
  util::Table table(header);
  // Full grid through the runner pool; aggregate from the record list.
  const auto records = driver.run_grid();
  std::map<std::string, std::map<double, util::RunningStats>> by_cell;
  util::RunningStats overall;
  for (const auto& record : records) {
    by_cell[record.app][record.target_size].add(record.error_percent);
    overall.add(record.error_percent);
  }
  for (const std::string& app : config.benchmarks) {
    std::vector<double> row;
    for (double size : config.skeleton_sizes) {
      row.push_back(by_cell[app][size].mean());
    }
    table.add_row_numeric(app, row, 1);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\noverall: %.1f%% -- the framework generalizes beyond the "
              "paper's six codes\n(EP's skeleton is nearly pure busy-work; "
              "FT's is dominated by one scaled alltoall).\n",
              overall.mean());
}

/// Strips the recorded memory behaviour from a skeleton (the paper's
/// communication-and-computation-only skeletons).
void strip_memory(sig::SigSeq& seq) {
  for (sig::SigNode& node : seq) {
    if (node.kind == sig::SigNode::Kind::kLoop) {
      strip_memory(node.body);
    } else {
      node.event.pre_mem_bytes = 0;
      node.event.interior_mem_bytes = 0;
    }
  }
}

// Extension (paper section 2, criterion 2 / section 5 limitation):
// memory activity.
//
// "The memory access pattern in the skeleton should be representative of
// the application."  The paper's skeletons reproduce only communication and
// coarse computation; memory behaviour is deferred to a companion paper
// [Toomula & Subhlok, LCR 2004].  Here the profiling library also records
// each compute phase's memory traffic (as hardware counters would), the
// skeleton replays it, and the simulated nodes have a finite memory bus.
//
// The scenario: a single memory-bound competitor on one node.  A core stays
// free, so CPU-share reasoning -- and a skeleton *without* memory behaviour
// -- predicts no slowdown; the memory-aware skeleton feels the bus.
void ext_memory(const Context& ctx) {
  const core::ExperimentConfig& config = ctx.config;
  print_banner(ctx, config);

  const scenario::Scenario& hog = scenario::memory_hog();
  std::printf("scenario: %s (%d competitor, %.1f GB/s intensity; node bus "
              "%.1f GB/s)\n\n",
              hog.description, hog.load_processes,
              hog.load_mem_bytes_per_work / 1e9,
              config.framework.cluster.memory_bandwidth_bps / 1e9);

  util::Table table({"app", "dedicated s", "under hog", "slowdown",
                     "mem-aware err%", "mem-less err%"});
  // MG and CG are memory-bound; EP is cache-resident.
  for (const char* name : {"MG", "CG", "EP"}) {
    core::SkeletonFramework framework(config.framework);
    const mpi::RankMain program =
        apps::find_benchmark(name).make(config.app_class);
    const trace::Trace trace = framework.record(program, name);
    const skeleton::Skeleton skeleton = framework.make_consistent_skeleton(
        trace, std::max(1.0, trace.elapsed() / 2.0));

    skeleton::Skeleton memoryless = skeleton;
    for (sig::RankSignature& rank : memoryless.ranks) {
      strip_memory(rank.roots);
    }

    const double actual = framework.run_app(program, hog);
    const double dedicated = trace.elapsed();

    const auto predict_with = [&](const skeleton::Skeleton& which) {
      skeleton::Calibration calibration;
      calibration.app_dedicated_time = dedicated;
      calibration.skeleton_dedicated_time =
          framework.run_skeleton(which, scenario::dedicated());
      const double shared = framework.run_skeleton(which, hog, 1);
      return skeleton::predict_app_time(calibration, shared);
    };

    const double aware = predict_with(skeleton);
    const double blind = predict_with(memoryless);
    table.add_row(
        {name, util::fixed(dedicated, 1), util::fixed(actual, 1),
         util::fixed(actual / dedicated, 2),
         util::fixed(skeleton::prediction_error_percent(aware, actual), 1),
         util::fixed(skeleton::prediction_error_percent(blind, actual), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: the memory-bound codes slow down although a core is free; "
      "only the\nskeleton that reproduces the memory traffic predicts it -- "
      "the paper's criterion 2\nmade quantitative.\n");
}

// ---------------------------------------------------------------- registry

constexpr Figure kFigures[] = {
    {"fig2", "Figure 2",
     "Compute% / MPI% for each application and its skeletons", fig2},
    {"fig3", "Figure 3",
     "Prediction error per benchmark x skeleton size, averaged over the "
     "five sharing scenarios",
     fig3},
    {"fig4", "Figure 4",
     "Estimated minimum execution time of the smallest good skeleton", fig4},
    {"fig5", "Figure 5",
     "Prediction error per skeleton size x benchmark, averaged over the "
     "five sharing scenarios",
     fig5},
    {"fig6", "Figure 6",
     "Prediction error per sharing scenario (10 second skeletons)", fig6},
    {"fig7", "Figure 7",
     "MIN / AVG / MAX error: skeletons vs Class-S vs average prediction "
     "(scenario: cpu-and-net)",
     fig7},
    {"ablate_eager_threshold", "Ablation: eager threshold",
     "Skeleton fidelity vs the runtime's eager/rendezvous switch point (IS "
     "and LU, 1 s skeletons)",
     ablate_eager_threshold},
    {"ablate_compression_ratio", "Ablation: compression target Q = K/divisor",
     "Signature size and prediction accuracy vs the compression-target "
     "heuristic (1 s skeletons)",
     ablate_compression_ratio},
    {"ablate_similarity_threshold", "Ablation: similarity threshold",
     "Compression ratio at fixed thresholds", ablate_similarity_threshold},
    {"ablate_compute_averaging", "Ablation: compute averaging",
     "Free compute merging (paper default) vs duration-sensitive clustering "
     "(2 s skeletons)",
     ablate_compute_averaging},
    {"ablate_latency_scaling", "Ablation: residual byte scaling",
     "Paper's bytes/K 'last resort' vs keeping residual messages full size "
     "(0.5 s skeletons)",
     ablate_latency_scaling},
    {"ablate_flutter", "Ablation: environment volatility",
     "Prediction error vs disturbance amplitude (2 s skeletons, scenario "
     "cpu-and-net)",
     ablate_flutter},
    {"ext_oversubscription", "Extension: oversubscribed node counts",
     "4-rank skeletons executed on 4/2/1-node clusters predict the "
     "application there",
     ext_oversubscription},
    {"ext_wan", "Extension: wide-area testbed",
     "Prediction error with 10 ms / 10 MB/s links between sites", ext_wan},
    {"ext_duration_distribution", "Extension: duration-distribution replay",
     "Mean-compute replay (paper) vs sampling each phase from the cluster's "
     "duration distribution (2 s skeletons)",
     ext_duration_distribution},
    {"ext_coscheduled", "Extension: co-scheduled MPI competitor",
     "Skeleton vs share-based prediction when the competitor is another "
     "parallel job",
     ext_coscheduled},
    {"ext_full_suite", "Extension: EP and FT",
     "Prediction error for the extended suite (paper's grid, two extra "
     "codes)",
     ext_full_suite},
    {"ext_memory", "Extension: memory activity",
     "Memory-aware vs memory-less skeletons under a memory-bound competitor "
     "(2 s skeletons)",
     ext_memory},
};

const Figure& find_figure(const std::string& name) {
  for (const Figure& figure : kFigures) {
    if (name == figure.name) return figure;
  }
  std::string valid;
  for (const Figure& figure : kFigures) {
    if (!valid.empty()) valid += ", ";
    valid += figure.name;
  }
  throw ConfigError("unknown figure '" + name + "' (valid: " + valid + ")");
}

}  // namespace

int cmd_figure(const util::Cli& cli) {
  const core::ExperimentConfig config = core::config_from_cli(cli);
  const core::ObsRequest obs = core::obs_from_cli(cli);
  std::vector<const Figure*> figures;
  for (const std::string& name : cli.positional()) {
    figures.push_back(&find_figure(name));
  }
  if (figures.empty()) {
    for (const Figure& figure : kFigures) {
      std::printf("%-28s %s: %s\n", figure.name, figure.title,
                  figure.description);
    }
    return 0;
  }
  core::ExperimentDriver driver(config);
  for (const Figure* figure : figures) {
    figure->run(Context{*figure, driver, config});
  }
  core::write_observability(driver, obs);
  return 0;
}

}  // namespace psk::figures
