// The command-line flags shared by every command that runs experiments:
// `psk run`/`predict`/`report`/`figure` and the bench programs parse them
// here, so each flag has one meaning and one check.
//
//   --class=S|W|A|B   problem class (default B, the paper's configuration)
//   --sizes=10,5,...  skeleton target sizes in seconds
//   --jobs=N          measurement-phase worker threads (default 0: one per
//                     hardware thread; 1 = serial; results are identical
//                     either way); negative values are rejected
//   --verbose         progress logging to stderr
//   --cache-dir=D     persistent content-addressed result cache shared
//                     across invocations (warm re-runs skip the simulator)
//   --cache-mem=N     in-memory cache capacity in entries (default 4096)
//   --no-cache        disable result memoization entirely
//   --cache-stats[=F] key=value cache counters to stderr or file F; never
//                     stdout, so cold and warm runs stay byte-identical
//   --topology=T      crossbar (default) | fattree:<down,up> |
//                     dragonfly:<groups,routers>
//   --trace-out=F     Chrome trace_event JSON of a dedicated serial
//                     fixed-seed run of the first benchmark
//   --metrics-out=F   flat key=value metrics dump of the same run
//   --obs-scenario=S  scenario of that run (default dedicated)
//   --phase-profile   wall-clock pipeline phase timings to stderr
// Malformed values throw ConfigError naming the flag.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "util/cli.h"

namespace psk::core {

/// Flag names for util::Cli::require_known: `extra` followed by --cache-dir,
/// --cache-mem, --no-cache, --cache-stats and --topology.
std::vector<std::string> simulation_flags(std::vector<std::string> extra = {});

/// simulation_flags(extra) plus --class, --sizes, --jobs, --verbose,
/// --trace-out, --metrics-out, --obs-scenario and --phase-profile.
std::vector<std::string> experiment_flags(std::vector<std::string> extra = {});

/// The experiment configuration the flags describe: class, sizes, jobs,
/// result cache (null under --no-cache) and topology.  --verbose raises the
/// log level.  Flags a command does not accept keep their defaults.
ExperimentConfig config_from_cli(const util::Cli& cli);

/// What --trace-out/--metrics-out/--obs-scenario/--phase-profile/
/// --cache-stats ask for.
struct ObsRequest {
  std::string trace_out;
  std::string metrics_out;
  /// The scenario of the dumped run; --obs-scenario resolves it eagerly, so
  /// a typo fails before any simulation.
  const scenario::Scenario* scenario = &scenario::dedicated();
  bool phase_profile = false;
  /// Empty = off, "true" (bare --cache-stats) = stderr, else a file.
  std::string cache_stats;
};

ObsRequest obs_from_cli(const util::Cli& cli);

/// Writes the recorder's --metrics-out/--trace-out files for a run that
/// ended at simulated time `elapsed`, and names each on stdout.
void write_dumps(const obs::Recorder& recorder, double elapsed,
                 const ObsRequest& request);

/// Writes the --cache-stats counters of `cache` (a no-op when either is
/// off).
void report_cache_stats(const ObsRequest& request,
                        const cache::ResultCache* cache);

/// Everything `request` asks for after a driver's work: the dumps of a
/// dedicated serial fixed-seed run of the driver's first benchmark under
/// request.scenario (byte-identical for any --jobs), the driver's phase
/// profile and its cache counters.
void write_observability(ExperimentDriver& driver, const ObsRequest& request);

}  // namespace psk::core
