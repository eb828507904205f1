// Fork-join thread pool for the sweep executor.
//
// Design: workers claim indices from one shared atomic counter, so every
// thread takes its indices in ascending order and the pool as a whole
// starts them in index order (FIFO).  Callers that order their task lists
// deepest dependency first get that order as their schedule: a task that
// waits on a value shared with an earlier index only waits while the
// thread that claimed that index is still computing it.  The caller thread
// participates as a worker, so a one-job pool runs everything inline with
// no thread handoff at all.
//
// Determinism: the pool only decides *which thread* runs an index, never
// *what* is computed -- bodies write to caller-owned slots keyed by index,
// so results are independent of scheduling.  When bodies throw, the
// exception thrown by the lowest index is rethrown to the caller, matching
// what a serial left-to-right loop would have reported.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psk::runner {

/// Resolves a --jobs request: values >= 1 pass through; 0 (the default)
/// means "one job per hardware thread" (at least 1).
int resolve_jobs(int requested);

class ThreadPool {
 public:
  /// Spawns jobs-1 worker threads (the caller is the remaining worker).
  /// `jobs` <= 0 resolves to the hardware concurrency.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  /// Runs body(i) for every i in [0, count) across the pool and blocks
  /// until all of them completed.  Bodies must be safe to run concurrently
  /// with each other.  Not reentrant: parallel_for must not be called from
  /// inside a body, and only one thread may drive the pool at a time.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_main();
  /// Claims and runs indices until all of [0, count) are taken.
  void drain(std::size_t count,
             const std::function<void(std::size_t)>& body);
  void record_failure(std::size_t index, std::exception_ptr error);

  int jobs_;
  std::vector<std::thread> threads_;

  // Job lifecycle state.  A "generation" is one parallel_for call; workers
  // sleep between generations.  parallel_for returns only after every
  // worker left drain(), so the claim counter is never shared across
  // generations.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  int active_workers_ = 0;
  bool shutdown_ = false;
  std::exception_ptr failure_;
  std::size_t failure_index_ = 0;
};

}  // namespace psk::runner
