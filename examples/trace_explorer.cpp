// Trace explorer: records a benchmark's execution trace, shows the
// nonblocking-region folding and the activity breakdown, and saves/reloads
// the trace as a PSKARCH1 archive.
//
// Useful when porting the tracer to new applications: the printed event
// stream is what the compressor will consume.
//
// Build & run:  ./examples/trace_explorer [--app=LU] [--class=S]
//               [--save=/tmp/app.trace] [--events=20]
#include <cstdio>
#include <string>

#include "apps/nas.h"
#include "archive/archive.h"
#include "mpi/world.h"
#include "sim/machine.h"
#include "trace/event.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/cli.h"
#include "util/format.h"

using namespace psk;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string app_name = cli.get("app", "LU");
  const apps::NasClass cls = apps::class_from_name(cli.get("class", "S"));
  const auto show_events = static_cast<std::size_t>(cli.get_int("events", 20));

  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  trace::Trace trace = trace::record_run(
      world, apps::find_benchmark(app_name).make(cls), app_name);

  std::printf("raw trace of %s class %s: %.3f s, %zu events\n",
              app_name.c_str(), apps::class_name(cls), trace.elapsed(),
              trace.event_count());

  const trace::FoldStats stats = trace::fold_nonblocking(trace);
  std::printf("folding: %zu exchange regions from %zu raw events, "
              "%zu fallback rewrites\n\n",
              stats.regions_created, stats.events_folded,
              stats.fallback_rewrites);

  const trace::RankTrace& rank0 = trace.ranks[0];
  std::printf("first %zu events of rank 0:\n", show_events);
  std::printf("%-10s %5s %10s %12s %12s\n", "call", "peer", "bytes",
              "pre-compute", "duration");
  for (std::size_t i = 0; i < rank0.events.size() && i < show_events; ++i) {
    const trace::TraceEvent& event = rank0.events[i];
    std::printf("%-10s %5d %10s %12s %12s\n",
                mpi::call_type_name(event.type).c_str(), event.peer,
                util::human_bytes(event.bytes).c_str(),
                util::human_seconds(event.pre_compute).c_str(),
                util::human_seconds(event.duration()).c_str());
  }

  const trace::ActivityBreakdown activity = trace::activity_breakdown(trace);
  std::printf("\nactivity: %s compute, %s MPI\n",
              util::percent(activity.compute_fraction).c_str(),
              util::percent(activity.mpi_fraction).c_str());

  const std::string save_path = cli.get("save", "");
  if (!save_path.empty()) {
    archive::save(save_path, trace).or_throw();
    const trace::Trace reloaded = archive::load_trace(save_path).or_throw();
    std::printf("saved to %s and reloaded: %zu events (round trip %s)\n",
                save_path.c_str(), reloaded.event_count(),
                reloaded.event_count() == trace.event_count() ? "ok"
                                                              : "MISMATCH");
  }
  return 0;
}
