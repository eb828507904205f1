// Memo: a thread-safe compute-once map for values shared by sweep tasks.
//
// Each key maps to a std::shared_future under one mutex.  The first caller
// of a key computes the value outside the lock; concurrent callers of the
// same key wait on its future instead of computing it again.  A computation
// that throws is erased before its waiters wake, so they all see the same
// exception and a later call retries.  Values never move once computed:
// the returned references stay valid for the memo's lifetime.
#pragma once

#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace psk::runner {

template <typename Key, typename Value>
class Memo {
 public:
  /// Returns the value for `key`, computing it with `compute()` on the first
  /// call.  `compute` may itself call other memos, but never this key.
  template <typename Compute>
  const Value& get(const Key& key, Compute&& compute) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // A copy: a failing computation erases its entry while we wait.
      const std::shared_future<Value> future = it->second;
      lock.unlock();
      // On success the entry keeps the shared state, and with it the
      // returned reference, alive.
      return future.get();
    }
    std::promise<Value> promise;
    const std::shared_future<Value>& future =
        entries_.emplace(key, promise.get_future().share()).first->second;
    lock.unlock();
    try {
      promise.set_value(compute());
    } catch (...) {
      {
        std::lock_guard<std::mutex> relock(mutex_);
        entries_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    return future.get();
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::shared_future<Value>> entries_;
};

}  // namespace psk::runner
