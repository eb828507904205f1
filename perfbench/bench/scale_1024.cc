// scale_1024: one synthetic BSP run (compute, ring exchange, allreduce per
// iteration) at 1024 ranks on each of crossbar, fattree:32,16 and
// dragonfly:16,8, serially.  Almost all simulator: event queue, both flow
// cores at a large world, the large-world collectives and coroutines.
//
// Unit of work: the three runs.  The seed moves the exchange size, the
// per-iteration compute and the cluster seed.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "scenario/synthetic.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace psk;

constexpr int kRanks = 1024;
constexpr const char* kTopologies[] = {"crossbar", "fattree:32,16",
                                       "dragonfly:16,8"};
constexpr const char* kLabels[] = {"crossbar", "fattree", "dragonfly"};
constexpr std::size_t kTopologyCount = 3;

scenario::SyntheticSpec make_spec(std::uint64_t seed) {
  scenario::SyntheticSpec spec;
  spec.iterations = 10;
  const std::uint64_t h = mix64(seed);
  spec.compute_seconds =
      1.0e-3 * (0.95 + 0.1 * static_cast<double>(h % 1001) / 1000.0);
  // 56-64 KiB: every seed stays on the same (eager) message protocol, so
  // seeds differ in timing, not in the kind of work.
  spec.exchange_bytes = static_cast<mpi::Bytes>((56 + (h >> 16) % 9) * 1024);
  spec.allreduce_bytes = 64;
  return spec;
}

std::vector<sim::ClusterConfig> make_clusters(std::uint64_t seed, int ranks) {
  std::vector<sim::ClusterConfig> clusters;
  for (const char* topology : kTopologies) {
    sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed(ranks);
    cluster.cores_per_node = 1;
    cluster.topology = sim::TopologySpec::parse(topology);
    cluster.seed = seed;
    clusters.push_back(cluster);
  }
  return clusters;
}

struct ScaleUnit {
  double wall_s = 0;
  /// Wall seconds of each topology's run, around the call.
  double run_s[kTopologyCount] = {};
  scenario::SyntheticResult results[kTopologyCount];
  std::uint64_t allocations = 0;

  double host_s() const {
    double total = 0;
    for (const auto& r : results) total += r.host_seconds;
    return total;
  }
  std::uint64_t events() const {
    std::uint64_t total = 0;
    for (const auto& r : results) total += r.events_dispatched;
    return total;
  }
};

ScaleUnit run_unit(const std::vector<sim::ClusterConfig>& clusters,
                   const scenario::SyntheticSpec& spec, bool count_allocs) {
  ScaleUnit unit;
  std::unique_ptr<AllocWindow> window;
  if (count_allocs) window = std::make_unique<AllocWindow>();
  const double start = now_seconds();
  for (std::size_t t = 0; t < kTopologyCount; ++t) {
    const double run_start = now_seconds();
    unit.results[t] = scenario::run_synthetic_bsp(clusters[t], kRanks, spec);
    unit.run_s[t] = now_seconds() - run_start;
  }
  unit.wall_s = now_seconds() - start;
  if (window) unit.allocations = window->count();
  return unit;
}

/// Set-up: the seeded spec and clusters, plus a 64-rank warm-up run per
/// topology so code and allocator are warm before timing.
double setup_once(std::uint64_t seed) {
  const double start = now_seconds();
  const scenario::SyntheticSpec spec = make_spec(seed);
  std::uint64_t events = 0;
  for (const sim::ClusterConfig& cluster : make_clusters(seed, 64)) {
    events += scenario::run_synthetic_bsp(cluster, 64, spec).events_dispatched;
  }
  const double elapsed = now_seconds() - start;
  return events > 0 ? elapsed : -1;
}

/// The event queue alone: `events` dispatches of no-op handlers that keep
/// `kRanks` events pending, as the BSP ranks do.  Returns ns per event.
double queue_ns_per_event(std::uint64_t events, std::uint64_t seed) {
  sim::Engine engine(seed);
  std::uint64_t scheduled = 0;
  std::uint64_t state = mix64(seed);
  std::function<void()> tick = [&] {
    if (scheduled >= events) return;
    ++scheduled;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double delay = 1e-6 * static_cast<double>((state >> 33) % 1000 + 1);
    engine.after(delay, tick);
  };
  for (int i = 0; i < kRanks && scheduled < events; ++i) {
    ++scheduled;
    engine.after(1e-6 * (i + 1), tick);
  }
  const double start = now_seconds();
  engine.run();
  const double elapsed = now_seconds() - start;
  return elapsed * 1e9 / static_cast<double>(engine.events_dispatched());
}

void check_unit(const ScaleUnit& unit, const ScaleUnit& first, Outcome& out) {
  for (std::size_t t = 0; t < kTopologyCount; ++t) {
    ++out.attempted;
    const auto& a = unit.results[t];
    const auto& b = first.results[t];
    if (a.events_dispatched != b.events_dispatched ||
        a.simulated_seconds != b.simulated_seconds || a.ranks != kRanks ||
        !(a.simulated_seconds > 0)) {
      out.fail(std::string(kLabels[t]) +
               ": events or simulated seconds differ between repetitions (" +
               std::to_string(a.events_dispatched) + " vs " +
               std::to_string(b.events_dispatched) + ")");
    }
  }
}

}  // namespace

Outcome run_scale_1024(const RunOptions& options) {
  Outcome out;
  const scenario::SyntheticSpec spec = make_spec(options.seed);
  out.notes.push_back(
      "scale_1024: " + std::to_string(kRanks) + " ranks, " +
      std::to_string(spec.iterations) + " iterations, exchange " +
      std::to_string(spec.exchange_bytes) + " B, compute " +
      std::to_string(spec.compute_seconds * 1e3) + " ms, serial");

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double setup = setup_once(options.seed);
    if (setup < 0) out.fail("set-up runs dispatched no events");
    setups.push_back(setup);
  }
  const std::vector<sim::ClusterConfig> clusters =
      make_clusters(options.seed, kRanks);

  // Untraced: units until the budget is spent (at least two, so repetition
  // can be checked).  Traced: one untraced unit as the overhead baseline,
  // then two allocation-counted units whose counts must repeat exactly.
  std::vector<ScaleUnit> units;
  const double start = now_seconds();
  while (units.size() < (options.trace ? 3u : 2u) ||
         (!options.trace && now_seconds() - start < options.seconds)) {
    const bool counted = options.trace && !units.empty();
    units.push_back(run_unit(clusters, spec, counted));
    check_unit(units.back(), units.front(), out);
  }
  // scale_s sums each topology's typical run (kTimeQuantile of its runs):
  // the units interleave the topologies, so a slow stretch of a shared
  // machine hits one sample of each rather than the whole figure.
  double scale_s = 0;
  for (std::size_t t = 0; t < kTopologyCount; ++t) {
    std::vector<double> runs;
    for (const ScaleUnit& unit : units) runs.push_back(unit.run_s[t]);
    scale_s += percentile(runs, kTimeQuantile);
  }
  for (std::size_t t = 0; t < kTopologyCount; ++t) {
    std::string line = std::string("scale_1024: ") + kLabels[t] + " runs (s):";
    for (const ScaleUnit& unit : units) {
      line += " " + std::to_string(unit.run_s[t]);
    }
    out.notes.push_back(line);
  }
  const double events = static_cast<double>(units.front().events());
  out.notes.push_back("scale_1024: " + std::to_string(units.size()) +
                      " unit(s), scale_s " + std::to_string(scale_s) +
                      ", " + std::to_string(units.front().events()) +
                      " events per unit");

  if (!options.trace) {
    out.metrics["setup_s"] = median(setups);
    out.metrics["wall_s"] = scale_s;
    out.metrics["ops_per_s"] = events / scale_s;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& m = out.metrics;
  std::vector<double> host[kTopologyCount];
  std::vector<double> host_total;
  std::vector<double> traced_walls;
  for (std::size_t u = 1; u < units.size(); ++u) {
    for (std::size_t t = 0; t < kTopologyCount; ++t) {
      host[t].push_back(units[u].results[t].host_seconds);
    }
    host_total.push_back(units[u].host_s());
    traced_walls.push_back(units[u].wall_s);
  }
  for (std::size_t t = 0; t < kTopologyCount; ++t) {
    m[std::string("sim.host_s.") + kLabels[t]] = median(host[t]);
  }
  const double host_s = median(host_total);
  m["sim.events"] = events;
  m["sim.events_per_s"] = events / host_s;
  m["sim.stack_ns_per_event"] = host_s * 1e9 / events;
  m["sim.queue_ns_per_event"] =
      queue_ns_per_event(units.front().events() / kTopologyCount,
                         options.seed);

  // Network share: the same runs with no ring exchange.
  scenario::SyntheticSpec quiet = spec;
  quiet.exchange_bytes = 0;
  const ScaleUnit no_exchange = run_unit(clusters, quiet, false);
  m["sim.net_share"] = (host_s - no_exchange.host_s()) / host_s;

  const bool repeat = units[1].allocations == units[2].allocations;
  m["alloc.per_event"] = static_cast<double>(units[1].allocations) / events;
  m["alloc.exact_repeat"] = repeat ? 1 : 0;
  m["scale_1024.unattributed_s"] = median(traced_walls) - host_s;
  m["perfbench.trace_overhead"] = median(traced_walls) / units[0].wall_s - 1;
  out.notes.push_back(
      "scale_1024: single-threaded allocation counts " +
      std::to_string(units[1].allocations) + " and " +
      std::to_string(units[2].allocations) +
      (repeat ? " repeat exactly" : " do NOT repeat exactly") +
      "; events and simulated seconds were checked across units");
  return out;
}

}  // namespace perfbench
