// psk: command-line front end for the performance-skeleton framework.
//
//   psk apps                               list bundled benchmarks
//   psk scenarios                          list sharing and fault scenarios
//   psk trace    --app=LU [--class=B] --out=lu.trace
//   psk compress --trace=lu.trace [--target-ratio=30] --out=lu.sig
//   psk skeleton --trace=lu.trace --target=2.0 --out=lu.skel
//   psk codegen  --skeleton=lu.skel --out=lu_skeleton.c
//   psk run      --skeleton=lu.skel [--scenario=cpu-one-node] [--seed=N]
//   psk predict  --app=LU [--class=B] --target=2.0 [--scenario=...]
//   psk report   --out=report.md [--class=B] [--apps=CG,MG]
//   psk figure   [NAME...]                paper figures, ablations, extensions
//   psk info     --trace=F | --signature=F | --skeleton=F
//
// Everything runs on the simulated testbed; the emitted C program is the
// artifact for real clusters.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/nas.h"
#include "archive/archive.h"
#include "codegen/emit_c.h"
#include "core/cli_flags.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "guard/validate.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sig/compress.h"
#include "skeleton/skeleton.h"
#include "skeleton/validate.h"
#include "svc/frame.h"
#include "tools/figures.h"
#include "trace/stats.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/format.h"

namespace {

using namespace psk;

int usage() {
  std::fprintf(
      stderr,
      "usage: psk <command> [--flag=value ...]\n"
      "commands:\n"
      "  apps                                   list bundled benchmarks\n"
      "  scenarios                              list sharing and fault "
      "scenarios\n"
      "  trace    --app=A [--class=B] --out=F\n"
      "  compress --trace=F [--target-ratio=R] --out=F\n"
      "  skeleton --trace=F --target=SECONDS --out=F\n"
      "  codegen  --skeleton=F --out=F.c        emit the C skeleton program\n"
      "  run      --skeleton=F [--scenario=S] [--seed=N]\n"
      "           [--trace-out=F.json] [--metrics-out=F]\n"
      "  predict  --app=A [--class=B] --target=SECONDS [--scenario=S]\n"
      "           [--jobs=N] [--trace-out=F.json] [--metrics-out=F]\n"
      "           [--phase-profile]\n"
      "  report   --out=F.md [--class=B] [--apps=CG,MG,...] [--jobs=N]\n"
      "           [--phase-profile]\n"
      "  figure   [NAME...] [--class=B] [--sizes=10,5,...] [--jobs=N]\n"
      "           [--verbose] [--trace-out=F.json] [--metrics-out=F]\n"
      "           [--obs-scenario=S] [--phase-profile]\n"
      "           runs the named paper figures (fig2..fig7), ablations\n"
      "           and extensions in order on one shared driver; with no\n"
      "           NAME, lists them\n"
      "  info     --trace=F | --signature=F | --skeleton=F\n"
      "trace, compress and skeleton write PSKARCH1 archives, the one file\n"
      "format every command reads (docs/FORMATS.md).\n"
      "--jobs=N runs the measurement grid on N worker threads (default: one\n"
      "per hardware thread; 1 = serial; results are identical either way;\n"
      "negative values are rejected)\n"
      "run/predict/report/figure also accept --cache-dir=D (persistent\n"
      "content-addressed result cache shared across invocations),\n"
      "--cache-mem=N (in-memory LRU entries, default 4096), --no-cache\n"
      "(disable memoization entirely) and --cache-stats[=F] (key=value\n"
      "hit/miss counters to stderr or file F, never stdout).  Results are\n"
      "bit-identical with the cache on, off, cold or warm.\n"
      "--trace-out writes a Chrome trace_event JSON timeline of the\n"
      "instrumented run (open in chrome://tracing or Perfetto);\n"
      "--metrics-out writes a flat key=value metrics dump.  Both come from a\n"
      "dedicated serial fixed-seed run, so they are byte-identical for any\n"
      "--jobs value.  --phase-profile prints wall-clock pipeline phase\n"
      "timings to stderr.\n"
      "run/predict/report/figure accept\n"
      "--topology=crossbar|fattree:<down,up>|\n"
      "dragonfly:<groups,routers> to pick the interconnect (default\n"
      "crossbar, the paper's testbed; hierarchical topologies use the\n"
      "incremental flow core that scales to thousands of ranks).\n"
      "run/predict/report accept --validate=strict|off (default strict):\n"
      "strict refuses semantically broken input, off skips the semantic\n"
      "checks.  A damaged file is refused under either (exit 2).\n"
      "exit codes: 1 usage/configuration, 2 validation/format, 3 runtime\n"
      "(simulation failure, deadlock, timeout).\n");
  return 1;
}

using svc::ValidateMode;

/// Parses --validate eagerly; an unknown mode throws ConfigError listing
/// the valid ones (strict|off).  Commands call this before any
/// expensive work so a typo fails fast, not after minutes of tracing.
ValidateMode validate_mode(const util::Cli& cli) {
  return svc::parse_validate_mode(cli.get("validate", "strict"));
}

/// Loads a PSKARCH1 skeleton honouring --validate: a damaged file is a
/// FormatError naming it under either mode; strict also refuses a
/// semantically broken skeleton.
skeleton::Skeleton load_skeleton_checked(const std::string& path,
                                         ValidateMode mode) {
  skeleton::Skeleton skeleton = archive::load_skeleton(path).or_throw();
  if (mode == ValidateMode::kStrict) {
    guard::require_valid(guard::validate_skeleton(skeleton));
  }
  return skeleton;
}

/// predict/report construct their artifacts in-process; validation there
/// checks the recorded trace (the root input of the whole pipeline).
void check_app_trace(const trace::Trace& trace, ValidateMode mode) {
  if (mode == ValidateMode::kStrict) {
    guard::require_valid(guard::validate_trace(trace));
  }
}

std::string require_flag(const util::Cli& cli, const std::string& name) {
  const std::string value = cli.get(name, "");
  util::require(!value.empty(), "missing required flag --" + name);
  return value;
}

/// --target, the skeleton's intended runtime: a finite number of seconds
/// > 0.  Anything else (0 would give K = inf; a negative, nan or inf target
/// a silent K = 1) is a ConfigError, raised before any tracing.
double target_seconds(const util::Cli& cli, double def) {
  const double target = cli.get_double("target", def);
  util::require(std::isfinite(target) && target > 0, [&] {
    return "--target must be a finite number of seconds > 0, got '" +
           cli.get("target", "") + "'";
  });
  return target;
}

int cmd_apps() {
  std::printf("%-4s %s\n", "name", "description");
  for (const apps::BenchmarkDef& def : apps::suite()) {
    std::printf("%-4s %s\n", def.name, def.description);
  }
  return 0;
}

int cmd_scenarios() {
  std::printf("%-18s %s\n", scenario::dedicated().name,
              scenario::dedicated().description);
  for (const scenario::Scenario& scenario : scenario::paper_scenarios()) {
    std::printf("%-18s %s\n", scenario.name, scenario.description);
  }
  std::printf("%-18s %s\n", scenario::memory_hog().name,
              scenario::memory_hog().description);
  for (const scenario::Scenario& scenario : scenario::fault_scenarios()) {
    std::printf("%-18s %s\n", scenario.name, scenario.description);
  }
  return 0;
}

int cmd_trace(const util::Cli& cli) {
  const std::string app = require_flag(cli, "app");
  const std::string out = require_flag(cli, "out");
  const apps::NasClass cls = apps::class_from_name(cli.get("class", "B"));

  core::SkeletonFramework framework;
  const trace::Trace trace =
      framework.record(apps::find_benchmark(app).make(cls), app);
  archive::save(out, trace).or_throw();
  std::printf("traced %s class %s: %.2f s, %zu events -> %s\n", app.c_str(),
              apps::class_name(cls), trace.elapsed(), trace.event_count(),
              out.c_str());
  return 0;
}

int cmd_compress(const util::Cli& cli) {
  const trace::Trace trace =
      archive::load_trace(require_flag(cli, "trace")).or_throw();
  const std::string out = require_flag(cli, "out");
  sig::CompressOptions options;
  options.target_ratio = cli.get_double("target-ratio", 30.0);
  const sig::Signature signature = sig::compress(trace, options);
  archive::save(out, signature).or_throw();
  std::printf("compressed %s: ratio %.1fx at threshold %.2f, %zu leaves -> "
              "%s\n",
              trace.app_name.c_str(), signature.compression_ratio,
              signature.threshold, signature.total_leaves(), out.c_str());
  return 0;
}

int cmd_skeleton(const util::Cli& cli) {
  const double target = target_seconds(cli, 1.0);
  const trace::Trace trace =
      archive::load_trace(require_flag(cli, "trace")).or_throw();
  const std::string out = require_flag(cli, "out");

  core::SkeletonFramework framework;
  const double k = std::max(1.0, trace.elapsed() / target);
  const skeleton::Skeleton skeleton =
      framework.make_consistent_skeleton(trace, k);
  archive::save(out, skeleton).or_throw();
  std::string warning;
  if (!skeleton.good) {
    warning = " [WARNING: below smallest good size " +
              util::fixed(skeleton.min_good_time, 2) + " s]";
  }
  std::printf("skeleton for %s: K=%.1f, intended %.2f s%s -> %s\n",
              trace.app_name.c_str(), skeleton.scaling_factor,
              skeleton.intended_time, warning.c_str(), out.c_str());
  return 0;
}

int cmd_codegen(const util::Cli& cli) {
  const skeleton::Skeleton skeleton =
      archive::load_skeleton(require_flag(cli, "skeleton")).or_throw();
  const std::string out = require_flag(cli, "out");
  codegen::write_c_program(out, skeleton);
  std::printf("emitted %s (compile: mpicc -O2 %s; run with %d ranks)\n",
              out.c_str(), out.c_str(), skeleton.rank_count());
  return 0;
}

int cmd_run(const util::Cli& cli) {
  const ValidateMode mode = validate_mode(cli);
  const skeleton::Skeleton skeleton =
      load_skeleton_checked(require_flag(cli, "skeleton"), mode);
  const scenario::Scenario& scenario =
      scenario::find_scenario(cli.get("scenario", "dedicated"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  const core::ObsRequest obs = core::obs_from_cli(cli);
  const bool observed = !obs.trace_out.empty() || !obs.metrics_out.empty();

  core::FrameworkOptions framework_options =
      core::config_from_cli(cli).framework;
  // Follow the file, not the default world size: a skeleton fixes its own
  // world.
  framework_options.ranks = skeleton.rank_count();
  core::SkeletonFramework framework(framework_options);
  obs::Recorder recorder;
  const double elapsed = framework.run_skeleton(
      skeleton, scenario, seed, {}, observed ? &recorder : nullptr);
  std::printf("skeleton '%s' under %s: %.3f s\n", skeleton.app_name.c_str(),
              scenario.name, elapsed);
  core::report_cache_stats(obs, framework_options.result_cache.get());
  core::write_dumps(recorder, elapsed, obs);
  return 0;
}

int cmd_predict(const util::Cli& cli) {
  const ValidateMode mode = validate_mode(cli);
  const double target = target_seconds(cli, 2.0);
  core::ExperimentConfig config = core::config_from_cli(cli);
  core::ObsRequest obs = core::obs_from_cli(cli);
  config.benchmarks = {require_flag(cli, "app")};
  config.skeleton_sizes = {target};
  core::ExperimentDriver driver(config);

  const std::string which = cli.get("scenario", "");
  std::vector<core::GridCell> cells;
  if (which.empty()) {
    for (const scenario::Scenario& scenario : scenario::paper_scenarios()) {
      cells.push_back(core::GridCell{config.benchmarks[0], target, &scenario});
    }
  } else {
    // find_scenario covers every registry (paper, memory, fault) and throws
    // a ConfigError listing the valid names on a typo.
    cells.push_back(core::GridCell{config.benchmarks[0], target,
                                   &scenario::find_scenario(which)});
  }
  check_app_trace(driver.app_trace(config.benchmarks[0]), mode);
  const auto records = driver.predict_cells(cells);
  std::printf("%-15s %10s %10s %8s\n", "scenario", "predicted", "actual",
              "error");
  for (const core::PredictionRecord& record : records) {
    std::printf("%-15s %8.2f s %8.2f s %7.1f%%%s\n", record.scenario.c_str(),
                record.predicted, record.app_scenario, record.error_percent,
                record.good ? "" : "  [skeleton below good size]");
  }

  // The dumps re-run the application under the first requested scenario.
  obs.scenario = cells[0].scenario;
  core::write_observability(driver, obs);
  return 0;
}

int cmd_report(const util::Cli& cli) {
  const ValidateMode mode = validate_mode(cli);
  const std::string out_path = require_flag(cli, "out");
  core::ExperimentConfig config = core::config_from_cli(cli);
  if (cli.has("apps")) {
    config.benchmarks.clear();
    std::istringstream in(cli.get("apps", ""));
    std::string name;
    while (std::getline(in, name, ',')) config.benchmarks.push_back(name);
  }
  core::ExperimentDriver driver(config);
  for (const std::string& app : config.benchmarks) {
    check_app_trace(driver.app_trace(app), mode);
  }
  // Evaluate the whole grid through the runner pool up front; the report
  // loops below then assemble records from the driver's memos.
  driver.run_grid();

  std::ofstream out(out_path);
  util::require(out.good(), "report: cannot open " + out_path);
  out << "# Performance-skeleton prediction report\n\n";
  out << "NAS class " << apps::class_name(config.app_class)
      << ", 4 ranks on 4 dual-core nodes; errors averaged over "
      << config.repetitions << " measurement pairs.\n\n";

  out << "## Smallest good skeletons\n\n";
  out << "| app | dedicated | smallest good skeleton |\n|---|---|---|\n";
  for (const std::string& app : config.benchmarks) {
    out << "| " << app << " | "
        << util::fixed(driver.app_trace(app).elapsed(), 1) << " s | "
        << util::fixed(driver.good_estimate(app).min_good_time, 2)
        << " s |\n";
  }

  out << "\n## Prediction error (%), per benchmark and skeleton size\n\n";
  out << "| app |";
  for (double size : config.skeleton_sizes) {
    out << " " << util::fixed(size, 1) << " s |";
  }
  out << "\n|---|";
  for (std::size_t i = 0; i < config.skeleton_sizes.size(); ++i) out << "---|";
  out << "\n";
  double total = 0;
  std::size_t cells = 0;
  for (const std::string& app : config.benchmarks) {
    out << "| " << app << " |";
    for (double size : config.skeleton_sizes) {
      double sum = 0;
      for (const auto& scenario : scenario::paper_scenarios()) {
        sum += driver.predict(app, size, scenario).error_percent;
      }
      const double mean = sum / 5.0;
      total += mean;
      ++cells;
      const bool good = driver.predict(app, size,
                                       scenario::paper_scenarios()[0])
                            .good;
      out << " " << util::fixed(mean, 1) << (good ? "" : "\\*") << " |";
    }
    out << "\n";
  }
  out << "\n\\* below the smallest good skeleton size\n\n";
  out << "Overall average error: **"
      << util::fixed(cells ? total / static_cast<double>(cells) : 0, 1)
      << "%**\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());
  core::write_observability(driver, core::obs_from_cli(cli));
  return 0;
}

int cmd_info(const util::Cli& cli) {
  if (cli.has("trace")) {
    const trace::Trace trace =
        archive::load_trace(cli.get("trace", "")).or_throw();
    std::printf("trace of '%s': %d ranks, %zu events, %.3f s elapsed\n",
                trace.app_name.c_str(), trace.rank_count(),
                trace.event_count(), trace.elapsed());
    const trace::ActivityBreakdown activity =
        trace::activity_breakdown(trace);
    std::printf("activity: %s compute, %s MPI\n\n",
                util::percent(activity.compute_fraction).c_str(),
                util::percent(activity.mpi_fraction).c_str());
    const trace::CommMatrix matrix = trace::communication_matrix(trace);
    std::printf("point-to-point traffic (%s in %llu messages):\n%s\n",
                util::human_bytes(static_cast<std::uint64_t>(
                                      matrix.total_bytes()))
                    .c_str(),
                static_cast<unsigned long long>(matrix.total_messages()),
                matrix.render().c_str());
    std::printf("message sizes:\n%s\n",
                trace::message_size_histogram(trace).render().c_str());
    std::printf("call profile:\n%s",
                trace::call_profile(trace).render().c_str());
    return 0;
  }
  if (cli.has("signature")) {
    const sig::Signature signature =
        archive::load_signature(cli.get("signature", "")).or_throw();
    std::printf("signature of '%s': %d ranks, %zu leaves, ratio %.1fx, "
                "threshold %.2f\n",
                signature.app_name.c_str(), signature.rank_count(),
                signature.total_leaves(), signature.compression_ratio,
                signature.threshold);
    std::printf("rank 0: %s\n",
                sig::to_string(signature.ranks[0].roots).c_str());
    return 0;
  }
  if (cli.has("skeleton")) {
    const skeleton::Skeleton skeleton =
        archive::load_skeleton(cli.get("skeleton", "")).or_throw();
    const skeleton::ConsistencyReport report =
        skeleton::check_consistency(skeleton);
    std::printf("skeleton of '%s': K=%.1f, intended %.3f s, min good %.3f s, "
                "%s, %s\n",
                skeleton.app_name.c_str(), skeleton.scaling_factor,
                skeleton.intended_time, skeleton.min_good_time,
                skeleton.good ? "good" : "NOT good",
                report.consistent ? "consistent" : "INCONSISTENT");
    std::printf("rank 0: %s\n",
                sig::to_string(skeleton.ranks[0].roots).c_str());
    return 0;
  }
  std::fprintf(stderr, "info: pass --trace, --signature or --skeleton\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    // Each command declares the full set of flags it consults, so a typo'd
    // flag ("--job=4") fails with the valid list instead of being ignored.
    if (command == "apps") {
      cli.require_known({});
      return cmd_apps();
    }
    if (command == "scenarios") {
      cli.require_known({});
      return cmd_scenarios();
    }
    if (command == "trace") {
      cli.require_known({"app", "class", "out"});
      return cmd_trace(cli);
    }
    if (command == "compress") {
      cli.require_known({"trace", "target-ratio", "out"});
      return cmd_compress(cli);
    }
    if (command == "skeleton") {
      cli.require_known({"trace", "target", "out"});
      return cmd_skeleton(cli);
    }
    if (command == "codegen") {
      cli.require_known({"skeleton", "out"});
      return cmd_codegen(cli);
    }
    if (command == "run") {
      cli.require_known(core::simulation_flags(
          {"skeleton", "scenario", "seed", "validate", "trace-out",
           "metrics-out"}));
      return cmd_run(cli);
    }
    if (command == "predict") {
      cli.require_known(core::simulation_flags(
          {"app", "class", "target", "scenario", "jobs", "validate",
           "trace-out", "metrics-out", "phase-profile"}));
      return cmd_predict(cli);
    }
    if (command == "report") {
      cli.require_known(core::simulation_flags(
          {"out", "class", "apps", "jobs", "validate", "phase-profile"}));
      return cmd_report(cli);
    }
    if (command == "figure") {
      cli.require_known(core::experiment_flags());
      return figures::cmd_figure(cli);
    }
    if (command == "info") {
      cli.require_known({"trace", "signature", "skeleton"});
      return cmd_info(cli);
    }
    // Distinct exit codes so scripts can tell misuse from bad input from a
    // failed simulation: 1 usage/config, 2 validation/format, 3 runtime.
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "psk %s: %s\n", command.c_str(), error.what());
    return 1;
  } catch (const guard::ValidationError& error) {
    std::fprintf(stderr, "psk %s: %s\n", command.c_str(), error.what());
    return 2;
  } catch (const FormatError& error) {
    std::fprintf(stderr, "psk %s: %s\n", command.c_str(), error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psk %s: %s\n", command.c_str(), error.what());
    return 3;
  }
  return usage();
}
