#include "runner/pool.h"

namespace psk::runner {

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::record_failure(std::size_t index, std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!failure_ || index < failure_index_) {
    failure_ = std::move(error);
    failure_index_ = index;
  }
}

void ThreadPool::drain(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  for (std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
       index < count;
       index = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      body(index);
    } catch (...) {
      record_failure(index, std::current_exception());
    }
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || (body_ != nullptr && generation_ != seen);
      });
      if (shutdown_) return;
      seen = generation_;
      body = body_;
      count = count_;
      ++active_workers_;
    }
    drain(count, *body);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (jobs_ == 1 || count == 1) {
    // Serial fast path: no threads, no locks, exceptions propagate directly.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    failure_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  drain(count, body);
  // Every index is claimed once drain() returns; wait for the workers
  // still running theirs.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  body_ = nullptr;
  if (failure_) {
    std::exception_ptr error = std::move(failure_);
    failure_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace psk::runner
