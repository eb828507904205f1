// Cancellable discrete-event queue: slab-allocated records behind a
// ladder/heap hybrid schedule.
//
// Events at equal timestamps fire in schedule order (stable), which keeps the
// whole simulation deterministic.
//
// Every event is either a *progress* event (the default: something that can
// move the simulated workload forward -- a transfer completing, a compute
// block finishing, a timer) or a *daemon* event (self-rescheduling background
// machinery such as load flutter or fault injection that keeps the queue
// non-empty forever without ever unblocking a task).  The queue tracks the
// two classes separately so the engine can recognise global quiescence --
// "no progress event pending" -- even while daemons keep ticking.
//
// Storage layout (the simulator's hottest path):
//
//  * Event records live in a slab: a slot-indexed vector of callbacks with a
//    free list.  schedule() performs no per-event heap allocation beyond the
//    callback's own capture storage, and Handle is a plain {slot, generation}
//    pair -- no shared_ptr, no atomic refcounts.
//  * The schedule itself is a calendar ("ladder") window of kBuckets
//    time-sliced buckets holding 24-byte POD keys, backed by a binary heap
//    for events outside the window (sparse far-future timers, or events
//    scheduled below the window cursor).  Events landing inside the window
//    are appended in O(1) and each bucket is sorted once when the cursor
//    reaches it; pop() compares the window head with the heap head, so the
//    global (time, seq) FIFO order is exactly the one a single binary heap
//    would produce.
//  * cancel() frees the slot (and the callback's captures) immediately and
//    leaves a dead 24-byte key behind; dead keys are skipped lazily on pop
//    and the structure compacts itself whenever dead keys outnumber live
//    ones, so cancel-heavy workloads (per-wait watchdog timers) keep queue
//    memory proportional to the *live* event count.
//
// Lifetime: handles are only meaningful while their EventQueue is alive;
// cancel()/pending() on a handle that outlived its queue is undefined (every
// in-tree user keeps handles inside objects owned by the engine).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace psk::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Cheap copyable handle for cancelling a scheduled event.  A
  /// default-constructed handle is inert.
  class Handle {
   public:
    Handle() = default;

    /// Prevents the event from firing; safe to call repeatedly and after the
    /// event has already fired.
    void cancel();

    /// True while the event is scheduled and not cancelled or fired.
    bool pending() const;

   private:
    friend class EventQueue;
    Handle(EventQueue* owner, std::uint32_t slot, std::uint32_t generation)
        : owner_(owner), slot_(slot), generation_(generation) {}
    EventQueue* owner_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
  };

  EventQueue() = default;
  // Handles hold a pointer back to the queue, so the queue must stay put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` at absolute time `t`.  Daemon events never count
  /// toward progress_size().  Defined inline below: one call per simulated
  /// event makes this (with pop) the hottest function in the simulator.
  Handle schedule(Time t, Callback callback, bool daemon = false);

  /// True when no live (non-cancelled) event remains.
  bool empty() const { return progress_live_ + daemon_live_ == 0; }

  std::size_t size() const { return progress_live_ + daemon_live_; }

  /// Live non-daemon events: the ones that can move the workload forward.
  /// Zero while tasks are still suspended means the simulation is
  /// quiescent -- nothing pending can ever resume them.
  std::size_t progress_size() const { return progress_live_; }

  /// Pops the earliest live event.  Returns false when the queue is empty;
  /// otherwise stores the event time in `t` and moves the callback out of
  /// its slab slot into `callback` (no copy, no refcount traffic).
  bool pop(Time& t, Callback& callback);

  /// Introspection for tests and tuning: keys still held by the schedule
  /// structures (live + not-yet-reclaimed dead) and how often the dead-key
  /// compactor ran.  Bounded-memory guarantee: queued_keys() never exceeds
  /// 2 * live + O(1) once compaction has a chance to run.
  std::size_t queued_keys() const { return queued_keys_; }
  std::size_t compactions() const { return compactions_; }

 private:
  friend class Handle;

  /// 24-byte POD ordering key; the callback stays in the slab.
  struct Key {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };
  /// Max-comparator for the min-heap on std::push_heap/pop_heap.
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    bool live = false;
    bool daemon = false;
  };

  // The slab grows in fixed chunks with stable addresses: growing a flat
  // vector would move every stored std::function on reallocation, which
  // shows up directly in event throughput on cold queues.
  static constexpr std::size_t kSlabChunkShift = 8;
  static constexpr std::size_t kSlabChunkSize = 1u << kSlabChunkShift;
  static constexpr std::size_t kSlabChunkMask = kSlabChunkSize - 1;

  // Calendar window geometry.  256 buckets keeps the per-window metadata in
  // one page while still cutting per-bucket sorts to ~n/256 keys.
  static constexpr std::size_t kBuckets = 256;
  // Below this many heap keys, pop straight from the heap instead of
  // building a window (sparse far-future events: heap fallback).
  static constexpr std::size_t kRebuildThreshold = 64;
  // Cap on keys moved per window rebuild, bounding rebuild latency.
  static constexpr std::size_t kWindowCap = 4096;
  // Compact once at least this many dead keys exist AND they outnumber
  // live ones.
  static constexpr std::size_t kCompactMin = 64;

  Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kSlabChunkShift][index & kSlabChunkMask];
  }
  const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index >> kSlabChunkShift][index & kSlabChunkMask];
  }

  bool stale(const Key& k) const {
    return slot_at(k.slot).generation != k.generation;
  }

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  bool slot_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slot_count_ && slot_at(slot).generation == generation &&
           slot_at(slot).live;
  }

  std::size_t bucket_of(Time t) const {
    // Multiply by the cached reciprocal: one FP divide per event is
    // measurable at event-queue rates.
    std::size_t b = static_cast<std::size_t>((t - epoch_) * inv_width_);
    return b < kBuckets ? b : kBuckets - 1;  // FP edge at the horizon
  }

  /// Bucket append that front-loads capacity: growing ~100 bucket vectors
  /// through the default 1-2-4-... doubling ladder costs hundreds of
  /// reallocations per cold window.
  static void push_bucket(std::vector<Key>& bucket, const Key& key) {
    if (bucket.size() == bucket.capacity()) {
      bucket.reserve(bucket.empty() ? 32 : 2 * bucket.capacity());
    }
    bucket.push_back(key);
  }

  void set_width(double width) {
    width_ = width;
    inv_width_ = 1.0 / width;
  }

  /// Next live key in the window, advancing and sorting buckets lazily;
  /// null when the window is drained (deactivates it).
  const Key* peek_near();
  /// Discards stale heap tops; afterwards far_ is empty or its top is live.
  void settle_far_top();
  /// Builds a fresh window around the heap's smallest live keys.
  void rebuild_window();
  /// Drops every dead key from the heap and the window buckets.
  void compact();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;

  std::vector<Key> buckets_[kBuckets];
  bool window_active_ = false;
  bool cur_sorted_ = false;
  std::size_t cur_bucket_ = 0;
  std::size_t cur_pos_ = 0;
  Time epoch_ = 0;
  Time horizon_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;

  /// Binary min-heap (via KeyLater) of keys outside the window.
  std::vector<Key> far_;

  std::uint64_t next_seq_ = 0;
  std::size_t progress_live_ = 0;
  std::size_t daemon_live_ = 0;
  std::size_t queued_keys_ = 0;
  std::size_t dead_keys_ = 0;
  std::size_t compactions_ = 0;
};

inline void EventQueue::Handle::cancel() {
  if (owner_ != nullptr) owner_->cancel_slot(slot_, generation_);
}

inline bool EventQueue::Handle::pending() const {
  return owner_ != nullptr && owner_->slot_pending(slot_, generation_);
}

// ---------------------------------------------------------------- hot path
// schedule() and pop() run once per simulated event; they are defined here
// so every call site compiles them inline.  The cold paths (window rebuild,
// cancellation, compaction) stay in event_queue.cc.

inline std::uint32_t EventQueue::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if ((slot_count_ >> kSlabChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kSlabChunkSize));
  }
  return slot_count_++;
}

inline void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  ++s.generation;  // invalidates every outstanding key and handle
  s.live = false;
  free_slots_.push_back(slot);
}

inline EventQueue::Handle EventQueue::schedule(Time t, Callback callback,
                                               bool daemon) {
  const std::uint32_t slot = allocate_slot();
  Slot& s = slot_at(slot);
  s.callback = std::move(callback);
  s.live = true;
  s.daemon = daemon;
  const Key key{t, next_seq_++, slot, s.generation};

  if (!window_active_) {
    // Cold queue: open a window at this event's time.  The width is carried
    // over from the last rebuild (or the initial guess); a bad guess only
    // means more keys share a bucket or spill to the heap, never a wrong
    // order.
    window_active_ = true;
    cur_bucket_ = 0;
    cur_pos_ = 0;
    cur_sorted_ = false;
    epoch_ = t;
    if (!(width_ > 0) || width_ > 1e300) set_width(1.0);
    horizon_ = epoch_ + width_ * static_cast<double>(kBuckets);
  }

  bool placed = false;
  if (t >= epoch_ && t < horizon_) {
    const std::size_t b = bucket_of(t);
    if (b > cur_bucket_) {
      push_bucket(buckets_[b], key);
      placed = true;
    } else if (b == cur_bucket_) {
      std::vector<Key>& bucket = buckets_[b];
      if (cur_sorted_) {
        // Keep the consumed-prefix invariant: insert into the still-pending
        // sorted tail.  (t, seq) is unique, so the position is unambiguous.
        const auto pos =
            std::upper_bound(bucket.begin() +
                                 static_cast<std::ptrdiff_t>(cur_pos_),
                             bucket.end(), key, KeyLess{});
        bucket.insert(pos, key);
      } else {
        bucket.push_back(key);
      }
      placed = true;
    }
    // b < cur_bucket_: the cursor already passed this slice; the heap path
    // below still orders it correctly against the window head.
  }
  if (!placed) {
    far_.push_back(key);
    std::push_heap(far_.begin(), far_.end(), KeyLater{});
  }
  ++queued_keys_;

  if (daemon) {
    ++daemon_live_;
  } else {
    ++progress_live_;
  }
  return Handle{this, slot, key.generation};
}

inline const EventQueue::Key* EventQueue::peek_near() {
  while (window_active_) {
    std::vector<Key>& bucket = buckets_[cur_bucket_];
    if (!cur_sorted_) {
      std::sort(bucket.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
                bucket.end(), KeyLess{});
      cur_sorted_ = true;
    }
    while (cur_pos_ < bucket.size() && stale(bucket[cur_pos_])) {
      ++cur_pos_;
      --queued_keys_;
      --dead_keys_;
    }
    if (cur_pos_ < bucket.size()) return &bucket[cur_pos_];
    bucket.clear();  // keeps capacity for the next window
    cur_pos_ = 0;
    cur_sorted_ = false;
    if (++cur_bucket_ == kBuckets) window_active_ = false;
  }
  return nullptr;
}

inline void EventQueue::settle_far_top() {
  while (!far_.empty() && stale(far_.front())) {
    std::pop_heap(far_.begin(), far_.end(), KeyLater{});
    far_.pop_back();
    --queued_keys_;
    --dead_keys_;
  }
}

inline bool EventQueue::pop(Time& t, Callback& callback) {
  if (!window_active_ && far_.size() >= kRebuildThreshold) {
    rebuild_window();
  }
  const Key* near = peek_near();
  settle_far_top();

  bool use_far;
  if (near != nullptr && !far_.empty()) {
    use_far = KeyLess{}(far_.front(), *near);
  } else if (near != nullptr) {
    use_far = false;
  } else if (!far_.empty()) {
    // Sparse tail (or keys below the window cursor): plain heap fallback.
    use_far = true;
  } else {
    return false;
  }

  Key key;
  if (use_far) {
    key = far_.front();
    std::pop_heap(far_.begin(), far_.end(), KeyLater{});
    far_.pop_back();
  } else {
    key = *near;
    ++cur_pos_;
  }
  --queued_keys_;

  Slot& slot = slot_at(key.slot);
  // Hold the callback in a local until the queue is consistent again: the
  // assignment to `callback` below destroys whatever the caller left there,
  // and that destructor may re-enter the queue (schedule, cancel, compact).
  Callback fired = std::move(slot.callback);
  if (slot.daemon) {
    --daemon_live_;
  } else {
    --progress_live_;
  }
  free_slot(key.slot);
  t = key.t;
  callback = std::move(fired);
  return true;
}

}  // namespace psk::sim
