// psk_perfbench: the repository benchmark program.
//
//   psk_perfbench --workload=paper_grid|scale_1024|serve_mix --seed=N
//                 --seconds=S --trace=0|1
//
// Prints a machine block, notes, and as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 0 when every correctness check passed, 1 when one failed, 2 on a
// usage error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

bool parse_flag(const std::string& arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "psk_perfbench: %s\nusage: psk_perfbench "
               "--workload=paper_grid|scale_1024|serve_mix --seed=N "
               "--seconds=S --trace=0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (parse_flag(arg, "workload", value)) {
        options.workload = value;
      } else if (parse_flag(arg, "seed", value)) {
        options.seed = std::stoull(value);
      } else if (parse_flag(arg, "seconds", value)) {
        options.seconds = std::stod(value);
      } else if (parse_flag(arg, "trace", value)) {
        if (value != "0" && value != "1") {
          return usage("--trace must be 0 or 1");
        }
        options.trace = value == "1";
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }
  // Load threads never exceed the cores this process may use.
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  options.load_threads =
      static_cast<int>(std::clamp<long>(online, 1, 4));

  perfbench::Outcome outcome;
  try {
    if (options.workload == "paper_grid") {
      outcome = perfbench::run_paper_grid(options);
    } else if (options.workload == "scale_1024") {
      outcome = perfbench::run_scale_1024(options);
    } else if (options.workload == "serve_mix") {
      outcome = perfbench::run_serve_mix(options);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& error) {
    outcome.fail(std::string("workload threw: ") + error.what());
  }
  perfbench::print_outcome(options, outcome);
  return outcome.correct ? 0 : 1;
}
