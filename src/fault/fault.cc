#include "fault/fault.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace psk::fault {

namespace {

/// Shared between all armed events of one install() call.  Events capture a
/// shared_ptr, so the state outlives both the caller's FaultSchedule and any
/// early engine teardown.
struct InstallState {
  FaultStats stats;
  CheckpointConfig checkpoint;
  sim::Time last_checkpoint = 0.0;
  int active_crashes = 0;
};

using StatePtr = std::shared_ptr<InstallState>;

sim::Time next_period(sim::Machine& machine, sim::Time period, double jitter) {
  if (jitter > 0) return period * machine.engine().rng().jitter(jitter);
  return period;
}

void check_spec(const sim::Machine& machine, int node, sim::Time first_at,
                sim::Time length, sim::Time period, const char* what) {
  util::require(node >= 0 && node < machine.node_count(),
                std::string(what) + ": node " + std::to_string(node) +
                    " out of range [0," +
                    std::to_string(machine.node_count()) + ")");
  util::require(first_at >= 0, std::string(what) + ": first_at must be >= 0");
  util::require(length > 0, std::string(what) + ": duration must be > 0");
  util::require(period >= 0, std::string(what) + ": period must be >= 0");
}

// The three injectors below are self-rescheduling free functions (the
// scenario-flutter idiom): each firing performs the down transition,
// schedules the matching up transition, and -- for periodic specs -- arms
// the next firing relative to this one.
//
// Every event armed here is a *daemon* event: fault machinery keeps the
// queue busy forever, but by itself never completes an MPI request, so it
// must not count as pending progress (that would mask deadlock detection).
// Up-transitions are safe as daemons because in-flight work they resume is
// visible elsewhere -- paused flows via Network::active_flows(),
// stalled compute via tasks that are unfinished yet not MPI-blocked.

void arm_crash(sim::Machine& machine, const StatePtr& state, CrashSpec spec,
               sim::Time delay);

void arm_outage(sim::Machine& machine, const StatePtr& state,
                LinkOutageSpec spec, sim::Time delay);

void arm_stall(sim::Machine& machine, const StatePtr& state, CpuStallSpec spec,
               sim::Time delay);

void arm_crash(sim::Machine& machine, const StatePtr& state, CrashSpec spec,
               sim::Time delay) {
  machine.engine().daemon_after(delay, [&machine, state, spec] {
    const sim::Time crash_time = machine.engine().now();
    machine.crash_node(spec.node);
    ++state->stats.crashes;
    ++state->active_crashes;
    machine.engine().daemon_after(
        spec.downtime, [&machine, state, crash_time, node = spec.node] {
          // Restart.  Under checkpointing the whole machine additionally
          // rolls back: restart protocol plus re-execution of everything
          // since the last consistent cut, charged as a global stall.  The
          // recovered state is itself a consistent cut, so it resets
          // last_checkpoint.
          machine.restore_node(node);
          ++state->stats.restarts;
          --state->active_crashes;
          if (state->checkpoint.enabled) {
            ++state->stats.rollbacks;
            const sim::Time lost =
                std::max(0.0, crash_time - state->last_checkpoint);
            state->stats.reexecuted += lost;
            state->last_checkpoint = machine.engine().now();
            const sim::Time recovery = state->checkpoint.restart_cost + lost;
            if (recovery > 0) {
              machine.stall_all_nodes();
              machine.engine().daemon_after(
                  recovery, [&machine] { machine.resume_all_nodes(); });
            }
          }
        });
    if (spec.period > 0) {
      arm_crash(machine, state, spec,
                next_period(machine, spec.period, spec.period_jitter));
    }
  });
}

void arm_outage(sim::Machine& machine, const StatePtr& state,
                LinkOutageSpec spec, sim::Time delay) {
  machine.engine().daemon_after(delay, [&machine, state, spec] {
    machine.network().push_link_fault(spec.node);
    ++state->stats.outages;
    machine.engine().daemon_after(spec.duration, [&machine, node = spec.node] {
      machine.network().pop_link_fault(node);
    });
    if (spec.period > 0) {
      arm_outage(machine, state, spec,
                 next_period(machine, spec.period, spec.period_jitter));
    }
  });
}

void arm_stall(sim::Machine& machine, const StatePtr& state, CpuStallSpec spec,
               sim::Time delay) {
  machine.engine().daemon_after(delay, [&machine, state, spec] {
    machine.node(spec.node).push_stall();
    ++state->stats.stalls;
    machine.engine().daemon_after(spec.duration,
                                  [&machine, node = spec.node] {
                                    machine.node(node).pop_stall();
                                  });
    if (spec.period > 0) {
      arm_stall(machine, state, spec,
                next_period(machine, spec.period, spec.period_jitter));
    }
  });
}

void arm_checkpoints(sim::Machine& machine, const StatePtr& state) {
  machine.engine().daemon_after(state->checkpoint.interval,
                                [&machine, state] {
    // Skip (do not even count) checkpoints attempted while a node is down:
    // a coordinated protocol cannot reach a crashed participant.  The
    // interval clock keeps ticking either way.
    if (state->active_crashes == 0) {
      ++state->stats.checkpoints;
      state->last_checkpoint = machine.engine().now();
      if (state->checkpoint.checkpoint_cost > 0) {
        machine.stall_all_nodes();
        machine.engine().daemon_after(
            state->checkpoint.checkpoint_cost,
            [&machine] { machine.resume_all_nodes(); });
      }
    }
    arm_checkpoints(machine, state);
  });
}

}  // namespace

std::shared_ptr<const FaultStats> install(sim::Machine& machine,
                                          const FaultSchedule& schedule) {
  for (const CrashSpec& spec : schedule.crashes) {
    check_spec(machine, spec.node, spec.first_at, spec.downtime, spec.period,
               "fault::install crash");
  }
  for (const LinkOutageSpec& spec : schedule.outages) {
    check_spec(machine, spec.node, spec.first_at, spec.duration, spec.period,
               "fault::install outage");
  }
  for (const CpuStallSpec& spec : schedule.stalls) {
    check_spec(machine, spec.node, spec.first_at, spec.duration, spec.period,
               "fault::install stall");
  }
  if (schedule.checkpoint.enabled) {
    util::require(schedule.checkpoint.interval > 0,
                  "fault::install: checkpoint interval must be > 0");
    util::require(schedule.checkpoint.checkpoint_cost >= 0 &&
                      schedule.checkpoint.restart_cost >= 0,
                  "fault::install: checkpoint costs must be >= 0");
  }

  auto state = std::make_shared<InstallState>();
  state->checkpoint = schedule.checkpoint;
  for (const CrashSpec& spec : schedule.crashes) {
    arm_crash(machine, state, spec, spec.first_at);
  }
  for (const LinkOutageSpec& spec : schedule.outages) {
    arm_outage(machine, state, spec, spec.first_at);
  }
  for (const CpuStallSpec& spec : schedule.stalls) {
    arm_stall(machine, state, spec, spec.first_at);
  }
  if (schedule.checkpoint.enabled) arm_checkpoints(machine, state);
  return std::shared_ptr<const FaultStats>(state, &state->stats);
}

}  // namespace psk::fault
