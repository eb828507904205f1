// Coroutine task type for simulated processes.
//
// A simulated MPI rank (and each collective algorithm it calls) is a C++20
// coroutine returning sim::Task.  Tasks start suspended; the simulation
// engine resumes them when their awaited event (compute completion, message
// arrival, ...) fires.  Awaiting a child Task transfers control to the child
// and resumes the parent on child completion (symmetric transfer), which is
// how collectives compose from point-to-point operations without threads.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace psk::sim {

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using handle_type = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /// Owner-provided flag raised when an exception escapes the coroutine
    /// body, and counter bumped when the coroutine finishes (normally or by
    /// an exception, i.e. when done() turns true).  The engine points every
    /// top-level task at one shared flag and one shared counter so its event
    /// loop can detect failure and completion in O(1) instead of scanning
    /// all tasks after every event.
    bool* failure_flag = nullptr;
    std::size_t* finish_counter = nullptr;

    Task get_return_object() {
      return Task{handle_type::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(handle_type h) noexcept {
        if (h.promise().finish_counter != nullptr) {
          ++*h.promise().finish_counter;
        }
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      exception = std::current_exception();
      if (failure_flag != nullptr) *failure_flag = true;
    }
  };

  Task() = default;
  explicit Task(handle_type handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Resumes from the initial suspension point.  Only the engine calls this
  /// for top-level tasks; child tasks are started by co_await.
  void start() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return !handle_ || handle_.done(); }

  /// Rethrows an exception that escaped the coroutine body, if any.
  void rethrow_if_failed() const {
    if (handle_ && handle_.done() && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  bool failed() const {
    return handle_ && handle_.done() &&
           handle_.promise().exception != nullptr;
  }

  /// Arms the promise's failure and completion notifications (see
  /// promise_type).  Both must outlive the coroutine; a child task failing
  /// propagates its exception to the awaiting parent, so arming top-level
  /// tasks suffices.
  void watch(bool* failure_flag, std::size_t* finish_counter) {
    if (!handle_) return;
    handle_.promise().failure_flag = failure_flag;
    handle_.promise().finish_counter = finish_counter;
  }

  /// Awaiting a Task runs it to completion as a child of the awaiting
  /// coroutine.  The task object must outlive the await (a temporary in the
  /// co_await full-expression satisfies this).
  auto operator co_await() const noexcept {
    struct Awaiter {
      handle_type child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) const noexcept {
        child.promise().continuation = parent;
        return child;
      }
      void await_resume() const {
        if (child && child.promise().exception) {
          std::rethrow_exception(child.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  handle_type handle_{};
};

}  // namespace psk::sim
