// Extension: prediction accuracy under faults.
//
// The paper evaluates skeletons under resource *sharing*; this bench asks
// whether accuracy degrades gracefully when resources *fail* -- nodes crash
// and restart, links flap, runs execute under coordinated checkpoints.
// Skeletons are shorter than the applications they model, so they sample
// fewer fault windows; the question is how much that costs.
//
// Beyond the experiment flags (core/cli_flags.h) this binary exercises the
// crash-safe sweep machinery:
//   --journal=PATH     append each completed cell to PATH as it finishes
//   --resume           replay PATH and re-run only the missing cells; the
//                      output is byte-identical to an uninterrupted run
//   --deadline=SECS    per-simulation wall-clock watchdog; a hung cell is
//                      recorded as `timeout` instead of wedging the sweep
//   --op-timeout=SECS  simulated-time MPI wait timeout (0 = wait forever)
// Payload numbers are serialized as hexfloats so a resumed run reproduces
// the fresh run's doubles bit-for-bit.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/cli_flags.h"
#include "core/experiment.h"
#include "runner/journal.h"
#include "scenario/scenario.h"
#include "util/error.h"
#include "util/format.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using psk::core::GridCell;
using psk::core::PredictionRecord;

std::string cell_key(const GridCell& cell) {
  char size[32];
  std::snprintf(size, sizeof size, "%g", cell.size_seconds);
  return cell.app + "|" + size + "|" + cell.scenario->name;
}

/// Hexfloat payload: exact double round-trip, independent of locale and
/// printf precision defaults.
std::string encode(const PredictionRecord& record) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "%a %a %a", record.predicted,
                record.app_scenario, record.error_percent);
  return buffer;
}

bool decode(const std::string& payload, PredictionRecord& record) {
  char* end = nullptr;
  const char* p = payload.c_str();
  record.predicted = std::strtod(p, &end);
  if (end == p) return false;
  p = end;
  record.app_scenario = std::strtod(p, &end);
  if (end == p) return false;
  p = end;
  record.error_percent = std::strtod(p, &end);
  return end != p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psk;
  const util::Cli cli(argc, argv);
  core::ExperimentConfig config;
  core::ObsRequest obs;
  runner::JournaledSweepOptions sweep_options;
  try {
    cli.require_known(core::experiment_flags(
        {"journal", "resume", "deadline", "op-timeout"}));
    config = core::config_from_cli(cli);
    obs = core::obs_from_cli(cli);
    sweep_options.journal_path = cli.get("journal", "");
    sweep_options.resume = cli.get_bool("resume", false);
    config.framework.wall_deadline_seconds = cli.get_double("deadline", 0.0);
    config.framework.mpi.op_timeout = cli.get_double("op-timeout", 0.0);
    util::require(!sweep_options.resume || !sweep_options.journal_path.empty(),
                  "--resume requires --journal=PATH");
    util::require(config.framework.wall_deadline_seconds >= 0,
                  "--deadline must be >= 0");
    util::require(config.framework.mpi.op_timeout >= 0,
                  "--op-timeout must be >= 0");
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  }
  config.skeleton_sizes = {10.0, 2.0};
  sweep_options.jobs = config.jobs;
  // Everything that versions the payload bytes goes into the domain: cells
  // only match across journals / shared caches when class, repetition count
  // and the simulated-time MPI timeout agree too, not just the
  // app|size|scenario key.  (--deadline is a wall-clock watchdog; timeouts
  // are never cached, so it stays out of the domain.)
  char op_timeout_text[32];
  std::snprintf(op_timeout_text, sizeof op_timeout_text, "%g",
                config.framework.mpi.op_timeout);
  sweep_options.domain =
      std::string("ext-faults/1|class=") + apps::class_name(config.app_class) +
      "|reps=" + std::to_string(config.repetitions) + "|op-timeout=" +
      op_timeout_text;
  sweep_options.cache = config.framework.result_cache.get();

  std::printf(
      "=== Extension: prediction accuracy under faults ===\n"
      "Skeleton predictions when nodes crash, links flap, and runs are "
      "checkpointed\n"
      "setup: NAS class %s, 4 ranks on 4 dual-core nodes, %zu skeleton "
      "sizes\n\n",
      apps::class_name(config.app_class), config.skeleton_sizes.size());

  // Fault scenarios plus the closest sharing scenarios as the
  // graceful-degradation baseline.
  std::vector<const scenario::Scenario*> scenarios;
  for (const scenario::Scenario& s : scenario::paper_scenarios()) {
    scenarios.push_back(&s);
  }
  for (const scenario::Scenario& s : scenario::fault_scenarios()) {
    scenarios.push_back(&s);
  }

  core::ExperimentDriver driver(config);
  std::vector<GridCell> cells;
  for (const std::string& app : config.benchmarks) {
    for (double size : config.skeleton_sizes) {
      for (const scenario::Scenario* s : scenarios) {
        cells.push_back(GridCell{app, size, s});
      }
    }
  }

  std::vector<std::string> keys;
  keys.reserve(cells.size());
  for (const GridCell& cell : cells) keys.push_back(cell_key(cell));

  runner::JournalReplayStats replay_stats;
  sweep_options.replay_stats = &replay_stats;
  const std::vector<runner::CellResult> results = runner::journaled_sweep(
      keys,
      [&](std::size_t i) {
        const GridCell& cell = cells[i];
        return encode(driver.predict(cell.app, cell.size_seconds,
                                     *cell.scenario));
      },
      sweep_options);
  if (sweep_options.resume) {
    std::printf("resume: %s\n", replay_stats.render().c_str());
  }

  // Aggregate by scenario; failed/timeout cells are reported, not averaged.
  std::map<std::string, util::RunningStats> by_scenario;
  util::RunningStats sharing_overall;
  util::RunningStats fault_overall;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const runner::CellResult& result = results[i];
    if (result.status == runner::CellResult::Status::kFailed) {
      ++failed;
      std::fprintf(stderr, "cell %s failed: %s\n", keys[i].c_str(),
                   result.detail.c_str());
      continue;
    }
    if (result.status == runner::CellResult::Status::kTimeout) {
      ++timed_out;
      std::fprintf(stderr, "cell %s timed out: %s\n", keys[i].c_str(),
                   result.detail.c_str());
      continue;
    }
    PredictionRecord record;
    if (!decode(result.payload, record)) {
      ++failed;
      std::fprintf(stderr, "cell %s: undecodable payload\n", keys[i].c_str());
      continue;
    }
    by_scenario[cells[i].scenario->name].add(record.error_percent);
    if (cells[i].scenario->has_fault()) {
      fault_overall.add(record.error_percent);
    } else {
      sharing_overall.add(record.error_percent);
    }
  }

  util::Table table({"scenario", "kind", "mean err%", "max err%", "cells"});
  for (const scenario::Scenario* s : scenarios) {
    const util::RunningStats& stats = by_scenario[s->name];
    if (stats.count() == 0) continue;
    table.add_row({s->name, s->has_fault() ? "fault" : "sharing",
                   util::fixed(stats.mean(), 1), util::fixed(stats.max(), 1),
                   std::to_string(stats.count())});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nsharing mean error: %.1f%%   fault mean error: %.1f%%\n"
      "(graceful degradation = the fault column grows, but stays the same "
      "order of\nmagnitude: the skeleton under-samples fault windows rather "
      "than breaking)\n",
      sharing_overall.mean(), fault_overall.mean());
  if (failed + timed_out > 0) {
    std::printf("%zu cell(s) failed, %zu timed out (see stderr)\n", failed,
                timed_out);
  }
  core::write_observability(driver, obs);
  return failed > 0 ? 1 : 0;
}
