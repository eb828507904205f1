#include "sim/engine.h"

#include <chrono>
#include <string>

#include "util/error.h"

namespace psk::sim {

EventQueue::Handle Engine::at(Time t, EventQueue::Callback callback) {
  return queue_.schedule(t < now_ ? now_ : t, std::move(callback));
}

EventQueue::Handle Engine::after(Time delay, EventQueue::Callback callback) {
  return at(now_ + (delay > 0 ? delay : 0), std::move(callback));
}

EventQueue::Handle Engine::daemon_at(Time t, EventQueue::Callback callback) {
  return queue_.schedule(t < now_ ? now_ : t, std::move(callback),
                         /*daemon=*/true);
}

EventQueue::Handle Engine::daemon_after(Time delay,
                                        EventQueue::Callback callback) {
  return daemon_at(now_ + (delay > 0 ? delay : 0), std::move(callback));
}

void Engine::add_quiescence_monitor(QuiescenceMonitor* monitor) {
  util::require(monitor != nullptr, "Engine: null quiescence monitor");
  monitors_.push_back(monitor);
}

void Engine::remove_quiescence_monitor(QuiescenceMonitor* monitor) {
  for (auto it = monitors_.begin(); it != monitors_.end(); ++it) {
    if (*it == monitor) {
      monitors_.erase(it);
      return;
    }
  }
}

void Engine::spawn(Task task) {
  util::require(task.valid(), "Engine::spawn: invalid task");
  task.watch(&task_failed_, &finished_tasks_);
  tasks_.push_back(std::move(task));
  // Defer the start so every rank begins at a well-defined event, in spawn
  // order, rather than synchronously inside the caller.  `tasks_` may
  // reallocate on later spawns, so capture by index instead of pointer.
  const std::size_t index = tasks_.size() - 1;
  at(now_, [this, index] { tasks_[index].start(); });
}

void Engine::run() {
  // Wall-clock watchdog state.  The check costs one branch per event in the
  // common (disabled) case and one clock read per kCheckStride events when
  // armed, so even hung simulations notice the deadline promptly.
  constexpr std::uint64_t kCheckStride = 1024;
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t next_check = dispatched_ + kCheckStride;

  Time t = 0.0;
  EventQueue::Callback callback;
  while (queue_.pop(t, callback)) {
    if (wall_deadline_ > 0 && dispatched_ >= next_check) {
      next_check = dispatched_ + kCheckStride;
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - wall_start;
      if (elapsed.count() > wall_deadline_) {
        throw TimeoutError(
            "simulation wall deadline exceeded (" +
            std::to_string(wall_deadline_) + " s wall) at t=" +
            std::to_string(now_) + " with " +
            std::to_string(unfinished_tasks()) + " tasks unfinished");
      }
    }
    if (t > time_limit_) {
      throw DeadlockError(
          "simulation time limit exceeded (" + std::to_string(time_limit_) +
          " s) with " + std::to_string(unfinished_tasks()) +
          " tasks unfinished; likely deadlock under daemon events");
    }
    now_ = t;
    ++dispatched_;
    callback();
    callback = nullptr;
    // Fail fast when a task died with an exception: keeping the simulation
    // running would likely just end in a misleading deadlock report.  The
    // flag is raised by the failing task's promise, so the common case is
    // one branch instead of a scan over every task per event.
    if (task_failed_) {
      for (const Task& task : tasks_) {
        if (task.failed()) task.rethrow_if_failed();
      }
    }
    // Spawned work finished: stop even if daemon-style recurring events
    // (load flutter, bandwidth flutter) are still queued.
    if (!tasks_.empty() && unfinished_tasks() == 0) return;
    // Deterministic deadlock detection: fires at the simulated instant the
    // last progress event drained, long before the time limit.
    if (!monitors_.empty()) check_quiescence();
  }
  std::size_t stuck = unfinished_tasks();
  if (stuck > 0) {
    // Give registered monitors first shot at a structured report; fall back
    // to the legacy coarse error when none claims the blocked tasks.
    check_quiescence();
    throw DeadlockError("simulation deadlock: " + std::to_string(stuck) +
                        " of " + std::to_string(tasks_.size()) +
                        " tasks still suspended at t=" + std::to_string(now_));
  }
}

void Engine::check_quiescence() {
  if (monitors_.empty() || tasks_.empty()) return;
  if (queue_.progress_size() > 0) return;  // something can still move
  const std::size_t unfinished = unfinished_tasks();
  if (unfinished == 0) return;
  std::size_t blocked = 0;
  for (QuiescenceMonitor* monitor : monitors_) {
    if (!monitor->quiescent()) return;  // in-flight work can still complete
    blocked += monitor->blocked_tasks();
  }
  // Only declare deadlock when every unfinished task is accounted for as
  // blocked; tasks the monitors do not understand (e.g. crash-stalled
  // compute) keep the benefit of the doubt until the queue truly drains.
  if (blocked < unfinished) return;
  for (QuiescenceMonitor* monitor : monitors_) {
    if (monitor->blocked_tasks() > 0) monitor->report_deadlock();
  }
}

}  // namespace psk::sim
