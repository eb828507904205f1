// Point-to-point message matching and transfer engine.
//
// Implements MPI envelope matching (source, destination, tag; FIFO within a
// channel, i.e. MPI's non-overtaking rule) and the eager/rendezvous transfer
// protocols over the simulated network.  All completions are delivered as
// engine events, never synchronously, so coroutines are only ever resumed
// from the event loop.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "mpi/types.h"
#include "sim/machine.h"

namespace psk::mpi {

class MessageEngine {
 public:
  /// `rank_to_node[r]` is the simulated node hosting rank r.
  MessageEngine(sim::Machine& machine, std::vector<int> rank_to_node,
                MpiConfig config);

  MessageEngine(const MessageEngine&) = delete;
  MessageEngine& operator=(const MessageEngine&) = delete;

  int rank_count() const { return static_cast<int>(rank_to_node_.size()); }
  int node_of(int rank) const;
  const MpiConfig& config() const { return config_; }
  sim::Machine& machine() { return machine_; }

  /// Posts a send from `src` to `dst`; returns the request that completes
  /// when the message is fully injected (eager) or delivered (rendezvous).
  Request post_send(int src, int dst, Bytes bytes, int tag);

  /// Posts a receive on `dst` for a message from `src`; the request
  /// completes when the matching message has fully arrived.
  Request post_recv(int dst, int src, int tag);

  bool request_done(int rank, Request request) const;

  /// Registers the resume thunk for an incomplete request.  Precondition:
  /// !request_done(rank, request) and no waiter registered yet.
  void set_waiter(int rank, Request request, std::function<void()> resume);

  /// Drops the registered waiter of a still-incomplete request (a timed
  /// wait whose timer won the race deregisters itself before retrying).
  void cancel_waiter(int rank, Request request);

  /// Total messages fully delivered (for tests and reporting).
  std::uint64_t messages_delivered() const { return delivered_; }

  /// Matching channels currently held: (src, dst, tag) triples with an
  /// unmatched send or a parked receive.  Zero once all traffic matched.
  std::size_t live_channels() const { return channels_.size(); }

  /// Timed-wait expiries observed across all ranks (each backoff retry
  /// counts once); a cheap health signal for fault experiments.
  std::uint64_t wait_timeouts() const { return wait_timeouts_; }
  void record_wait_timeout() { ++wait_timeouts_; }

  /// One rank suspended in a wait on an incomplete request.  The op fields
  /// describe what the rank is waiting *for*: its own pending send or recv.
  struct PendingWait {
    int rank = -1;
    bool is_send = false;
    int peer = -1;
    int tag = 0;
    Bytes bytes = 0;
    std::uint32_t request = Request::kInvalid;
  };

  /// Number of ranks currently suspended in a wait (each rank registers at
  /// most one waiter at a time).  O(1); maintained by set_waiter /
  /// cancel_waiter / complete_request.
  std::size_t waiting_rank_count() const { return waiters_; }

  /// Snapshot of every rank suspended in a wait, ordered by rank.  O(total
  /// requests); intended for deadlock reporting, not per-event use.
  std::vector<PendingWait> pending_waits() const;

 private:
  struct Message {
    int src = -1;
    int dst = -1;
    int tag = 0;
    Bytes bytes = 0;
    bool eager = true;
    bool recv_posted = false;
    bool transfer_started = false;
    bool arrived = false;
    std::uint32_t send_req = Request::kInvalid;
    std::uint32_t recv_req = Request::kInvalid;
  };

  struct RequestState {
    bool done = false;
    std::function<void()> waiter;
    // What this request stands for, kept for deadlock diagnostics.
    bool is_send = false;
    int peer = -1;
    int tag = 0;
    Bytes bytes = 0;
  };

  // A channel lives only while it holds an unmatched send or a parked
  // receive: the match that empties it erases it, so the table stays as
  // small as the traffic in flight even though every collective takes a
  // fresh tag.
  using ChannelKey = std::tuple<int, int, int>;  // src, dst, tag
  struct Channel {
    std::deque<std::shared_ptr<Message>> unmatched_sends;
    std::deque<std::shared_ptr<Message>> unmatched_recvs;
  };
  using ChannelMap = std::map<ChannelKey, Channel>;

  Request alloc_request(int rank);
  void erase_if_drained(ChannelMap::iterator slot);
  void complete_request(int rank, std::uint32_t id);
  void start_transfer(const std::shared_ptr<Message>& message,
                      sim::Time extra_delay);
  void on_arrival(const std::shared_ptr<Message>& message);

  sim::Machine& machine_;
  std::vector<int> rank_to_node_;
  MpiConfig config_;
  ChannelMap channels_;
  std::vector<std::vector<RequestState>> requests_;  // [rank][id]
  std::uint64_t delivered_ = 0;
  std::uint64_t wait_timeouts_ = 0;
  std::size_t waiters_ = 0;  // ranks currently suspended in a wait
};

}  // namespace psk::mpi
