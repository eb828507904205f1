// The three workloads.  Each builds its inputs from RunOptions::seed, times
// its unit of work for RunOptions::seconds, checks the program's outputs
// and fills an Outcome with the end-to-end metrics (trace off) or the
// per-layer metrics (trace on).
#pragma once

#include "report.h"

namespace perfbench {

/// The paper's Figure 6 evaluation grid at NAS class B.
Outcome run_paper_grid(const RunOptions& options);
/// Synthetic BSP at 1024 ranks on three topologies, serial.
Outcome run_scale_1024(const RunOptions& options);
/// An in-process pskd behind a unix socket, closed then open loop.
Outcome run_serve_mix(const RunOptions& options);

}  // namespace perfbench
