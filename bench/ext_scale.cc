// Extension: simulator scaling with rank count and topology.
//
// Runs a synthetic BSP workload (compute, ring exchange, allreduce per
// iteration) at growing world sizes on each requested topology and reports
// the *host* cost per simulated rank.  This is the scaling story of the
// incremental per-link flow core: on hierarchical topologies the host time
// per event stays O(affected flows), so total host time grows near-linearly
// with rank count.  The dense crossbar core (kept for byte-identical paper
// results) makes one pass over every in-flight flow per event -- it keeps
// its per-link counts and shares across events, but the pass itself is
// O(flows) -- so its host time per rank grows with the world size.
//
// Flags (beyond nothing -- this bench does not use the skeleton pipeline):
//   --ranks=64,256,1024     world sizes to sweep
//   --topologies=crossbar+fattree:32,16+dragonfly:16,8
//                           '+'-separated --topology specs (commas belong
//                           to the specs themselves)
//   --iters=N               BSP iterations per run (default 10)
//   --mode=weak|strong      weak keeps per-rank work constant (default);
//                           strong divides compute across ranks
//   --quick                 small preset for CI smoke (fewer iters/ranks)
//   --assert-subquadratic   exit 1 unless every hierarchical topology's
//                           host time grows sub-quadratically between
//                           consecutive rank points
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "scenario/synthetic.h"
#include "sim/topology.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace psk;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

struct Point {
  int ranks = 0;
  scenario::SyntheticResult result;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  try {
    cli.require_known({"ranks", "topologies", "iters", "mode", "quick",
                       "assert-subquadratic"});

    const bool quick = cli.get_bool("quick", false);
    std::vector<int> ranks;
    for (const std::string& part :
         split(cli.get("ranks", quick ? "64,256" : "64,256,1024"), ',')) {
      const int value = std::atoi(part.c_str());
      util::require(value >= 2, "--ranks entries must be >= 2");
      ranks.push_back(value);
    }
    std::vector<sim::TopologySpec> topologies;
    for (const std::string& part :
         split(cli.get("topologies",
                       quick ? "fattree:32,16"
                             : "crossbar+fattree:32,16+dragonfly:16,8"),
               '+')) {
      topologies.push_back(sim::TopologySpec::parse(part));
    }
    scenario::SyntheticSpec base;
    base.iterations = static_cast<int>(cli.get_int("iters", quick ? 4 : 10));
    util::require(base.iterations >= 1, "--iters must be >= 1");
    const std::string mode = cli.get("mode", "weak");
    util::require(mode == "weak" || mode == "strong",
                  "--mode must be weak or strong");

    std::printf("=== Extension: simulator scaling ===\n");
    std::printf(
        "synthetic BSP (%d iters: compute + ring exchange + allreduce), "
        "%s scaling,\none rank per node; host us/rank is the metric "
        "that must stay flat-ish\n\n",
        base.iterations, mode.c_str());

    bool subquadratic = true;
    for (const sim::TopologySpec& topology : topologies) {
      std::vector<Point> points;
      for (int p : ranks) {
        scenario::SyntheticSpec spec = base;
        if (mode == "strong") {
          spec.compute_seconds = base.compute_seconds *
                                 static_cast<double>(ranks.front()) / p;
        }
        sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed(p);
        cluster.cores_per_node = 1;
        cluster.topology = topology;
        Point point;
        point.ranks = p;
        point.result = scenario::run_synthetic_bsp(cluster, p, spec);
        points.push_back(point);
      }

      std::printf("--- topology %s ---\n", topology.to_string().c_str());
      util::Table table({"ranks", "sim s", "host s", "host us/rank",
                         "events", "growth vs prev"});
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& point = points[i];
        std::string growth = "-";
        if (i > 0) {
          const double rank_ratio = static_cast<double>(point.ranks) /
                                    points[i - 1].ranks;
          const double host_ratio =
              point.result.host_seconds /
              std::max(1e-9, points[i - 1].result.host_seconds);
          growth = util::fixed(host_ratio, 2) + "x (ranks " +
                   util::fixed(rank_ratio, 0) + "x)";
          // Sub-quadratic check: host growth strictly below rank_ratio^2.
          // Crossbar runs the dense (byte-identical) core, whose per-event
          // pass over all flows can approach quadratic growth -- it is the
          // contrast line, not a scaling claim, so it is exempt.
          if (!topology.is_crossbar() &&
              host_ratio >= rank_ratio * rank_ratio) {
            subquadratic = false;
          }
        }
        table.add_row({std::to_string(point.ranks),
                       util::fixed(point.result.simulated_seconds, 3),
                       util::fixed(point.result.host_seconds, 3),
                       util::fixed(point.result.host_seconds * 1e6 /
                                       point.ranks,
                                   1),
                       std::to_string(point.result.events_dispatched),
                       growth});
      }
      std::printf("%s\n", table.render().c_str());
    }

    if (cli.get_bool("assert-subquadratic", false) && !subquadratic) {
      std::fprintf(stderr,
                   "ext_scale: host time grew quadratically (or worse) on a "
                   "hierarchical topology\n");
      return 1;
    }
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "ext_scale",
                 error.what());
    return 2;
  }
  return 0;
}
