#include "guard/deadlock.h"

#include <cstdio>
#include <utility>

namespace psk::guard {

namespace {

std::string format_time(sim::Time t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", t);
  return buffer;
}

/// Finds a cycle in the wait-for graph.  Every blocked rank has exactly one
/// outgoing edge (the peer its pending op names), so the graph is
/// functional: walk each unvisited chain and the first node revisited
/// within the current walk starts the cycle.
std::vector<int> find_cycle(
    const std::vector<mpi::MessageEngine::PendingWait>& blocked,
    int total_ranks) {
  std::vector<int> waits_for(static_cast<std::size_t>(total_ranks), -1);
  for (const auto& wait : blocked) {
    if (wait.rank >= 0 && wait.rank < total_ranks && wait.peer >= 0 &&
        wait.peer < total_ranks) {
      waits_for[static_cast<std::size_t>(wait.rank)] = wait.peer;
    }
  }
  // 0 = unvisited, 1 = on the current walk, 2 = exhausted (no cycle here).
  std::vector<int> state(static_cast<std::size_t>(total_ranks), 0);
  for (int start = 0; start < total_ranks; ++start) {
    if (state[static_cast<std::size_t>(start)] != 0) continue;
    std::vector<int> path;
    int at = start;
    while (at >= 0 && state[static_cast<std::size_t>(at)] == 0) {
      state[static_cast<std::size_t>(at)] = 1;
      path.push_back(at);
      at = waits_for[static_cast<std::size_t>(at)];
    }
    if (at >= 0 && state[static_cast<std::size_t>(at)] == 1) {
      // `at` is on the current walk: the cycle is the path suffix from it.
      std::vector<int> cycle;
      bool in_cycle = false;
      for (int rank : path) {
        if (rank == at) in_cycle = true;
        if (in_cycle) cycle.push_back(rank);
      }
      return cycle;
    }
    for (int rank : path) state[static_cast<std::size_t>(rank)] = 2;
  }
  return {};
}

}  // namespace

std::string DeadlockReport::render() const {
  std::string out = "deadlock detected at t=" + format_time(time) + ": " +
                    std::to_string(blocked.size()) + " of " +
                    std::to_string(total_ranks) +
                    " ranks blocked in MPI waits";
  for (const auto& wait : blocked) {
    out += "\n  rank " + std::to_string(wait.rank) + ": waiting on ";
    if (wait.is_send) {
      out += "send of " + std::to_string(wait.bytes) + " bytes to rank " +
             std::to_string(wait.peer);
    } else {
      out += "recv from rank " + std::to_string(wait.peer);
    }
    out += " (tag " + std::to_string(wait.tag) + ", request " +
           std::to_string(wait.request) + ")";
  }
  if (cycle.empty()) {
    out += "\n  wait-for cycle: none (waits lead to a rank that never "
           "posted the matching op)";
  } else {
    out += "\n  wait-for cycle: ";
    for (int rank : cycle) out += std::to_string(rank) + " -> ";
    out += std::to_string(cycle.front());
  }
  return out;
}

DeadlockDetected::DeadlockDetected(DeadlockReport report)
    : DeadlockError(report.render()), report_(std::move(report)) {}

DeadlockReport build_deadlock_report(mpi::World& world) {
  DeadlockReport report;
  report.time = world.machine().engine().now();
  report.total_ranks = world.size();
  report.blocked = world.message_engine().pending_waits();
  report.cycle = find_cycle(report.blocked, report.total_ranks);
  return report;
}

DeadlockMonitor::DeadlockMonitor(mpi::World& world) : world_(world) {
  world_.machine().engine().add_quiescence_monitor(this);
}

DeadlockMonitor::~DeadlockMonitor() {
  world_.machine().engine().remove_quiescence_monitor(this);
}

std::size_t DeadlockMonitor::blocked_tasks() const {
  return world_.message_engine().waiting_rank_count();
}

bool DeadlockMonitor::quiescent() const {
  return world_.machine().network().active_flows() == 0;
}

void DeadlockMonitor::report_deadlock() {
  throw DeadlockDetected(build_deadlock_report(world_));
}

}  // namespace psk::guard
