// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events with equal timestamps fire in
// schedule order, and all randomness flows through one seeded RNG.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/rng.h"

namespace psk::sim {

/// Observer consulted by Engine::run() when the simulation goes quiescent:
/// tasks are still unfinished but no progress event is pending.  Higher
/// layers (the MPI runtime via psk::guard) implement this to recognise the
/// moment as a deadlock and raise a structured report instead of letting
/// daemon events burn simulated time until the coarse time limit.
class QuiescenceMonitor {
 public:
  virtual ~QuiescenceMonitor() = default;

  /// Number of engine tasks currently blocked in an operation this monitor
  /// understands (e.g. ranks suspended in an untimed MPI wait).
  virtual std::size_t blocked_tasks() const = 0;

  /// False while the monitored subsystem still has in-flight work that can
  /// complete on its own (e.g. paused network flows that resume when a
  /// faulted link comes back up).
  virtual bool quiescent() const = 0;

  /// Called once deadlock is established; expected to throw a descriptive
  /// error (guard::DeadlockDetected).  Only invoked on monitors reporting
  /// blocked_tasks() > 0.
  virtual void report_deadlock() = 0;
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }
  util::Rng& rng() { return rng_; }

  /// Schedules `callback` at absolute simulated time `t` (>= now).
  EventQueue::Handle at(Time t, EventQueue::Callback callback);

  /// Schedules `callback` after a relative delay (clamped to >= 0).
  EventQueue::Handle after(Time delay, EventQueue::Callback callback);

  /// Daemon variants of at()/after(): the event fires normally but does not
  /// count as pending progress.  Use these for self-rescheduling background
  /// machinery (load flutter, fault injection) that would otherwise mask
  /// deadlocks by keeping the queue busy forever.
  EventQueue::Handle daemon_at(Time t, EventQueue::Callback callback);
  EventQueue::Handle daemon_after(Time delay, EventQueue::Callback callback);

  /// Takes ownership of a top-level task and starts it at the current time.
  /// Typically called once per simulated rank before run().
  void spawn(Task task);

  /// Runs until the event queue drains, or -- when tasks were spawned --
  /// until every spawned task completed (daemon-style recurring events such
  /// as load flutter do not keep the simulation alive).  Throws the first
  /// exception that escaped a spawned task; DeadlockError if the queue
  /// drained while tasks were still suspended, or if the time limit was
  /// exceeded (the deadlock signal when daemon events keep the queue busy).
  void run();

  /// Aborts run() with DeadlockError once simulated time passes `limit`.
  void set_time_limit(Time limit) { time_limit_ = limit; }
  Time time_limit() const { return time_limit_; }

  /// Per-simulation deadline watchdog: run() throws TimeoutError once this
  /// many wall-clock seconds elapse (0 disables).  Simulations are pure
  /// event loops, so a hung run is an unbounded event churn -- the check
  /// runs between events and converts the hang into a catchable error that
  /// sweep executors record as a `timeout` cell.  Note this watches *wall*
  /// time: runs near the deadline are not reproducible, so size it orders
  /// of magnitude above a healthy run.
  void set_wall_deadline(double seconds) { wall_deadline_ = seconds; }
  double wall_deadline() const { return wall_deadline_; }

  /// Number of spawned tasks that have not completed.  O(1).
  std::size_t unfinished_tasks() const {
    return tasks_.size() - finished_tasks_;
  }

  /// Registers/unregisters a quiescence monitor.  While at least one monitor
  /// is registered, run() checks after every dispatched event whether the
  /// simulation has gone globally idle with tasks still suspended -- no
  /// pending progress event, every monitor quiescent, and every unfinished
  /// task accounted for as blocked -- and if so asks a blocked monitor to
  /// report the deadlock (which throws).  Monitors must outlive run() or be
  /// removed first.
  void add_quiescence_monitor(QuiescenceMonitor* monitor);
  void remove_quiescence_monitor(QuiescenceMonitor* monitor);

  /// Awaitable that suspends the calling coroutine for `delay` seconds.
  auto sleep(Time delay) {
    struct Awaiter {
      Engine& engine;
      Time delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.after(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, delay};
  }

  /// Total events dispatched so far (for performance reporting).
  std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  /// Throws (via QuiescenceMonitor::report_deadlock) when the simulation is
  /// provably deadlocked; no-op otherwise.  Cheap unless progress drained.
  void check_quiescence();

  EventQueue queue_;
  std::vector<Task> tasks_;
  std::vector<QuiescenceMonitor*> monitors_;
  /// Set by any spawned task's promise when an exception escapes it, and
  /// bumped by it when it finishes (see Task::watch); lets run() check for
  /// failure and completion in O(1).
  bool task_failed_ = false;
  std::size_t finished_tasks_ = 0;
  Time now_ = 0.0;
  Time time_limit_ = 1.0e9;  // ~30 simulated years: any real run is shorter
  double wall_deadline_ = 0.0;
  std::uint64_t dispatched_ = 0;
  util::Rng rng_;
};

/// Adapts a callback-style asynchronous operation into an awaitable.  The
/// `start` functor receives a resume thunk and must arrange for it to be
/// invoked exactly once, later, by the engine.
template <typename Start>
class AwaitCallback {
 public:
  explicit AwaitCallback(Start start) : start_(std::move(start)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    start_([h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Start start_;
};

template <typename Start>
AwaitCallback<Start> make_awaitable(Start start) {
  return AwaitCallback<Start>(std::move(start));
}

}  // namespace psk::sim
