#include "mpi/message_engine.h"

#include <string>
#include <utility>

#include "util/error.h"

namespace psk::mpi {

MessageEngine::MessageEngine(sim::Machine& machine,
                             std::vector<int> rank_to_node, MpiConfig config)
    : machine_(machine),
      rank_to_node_(std::move(rank_to_node)),
      config_(config) {
  util::require(!rank_to_node_.empty(), "MessageEngine: no ranks");
  for (int node : rank_to_node_) {
    util::require(node >= 0 && node < machine_.node_count(), [&] {
      return "MessageEngine: rank mapped to invalid node " +
             std::to_string(node);
    });
  }
  requests_.resize(rank_to_node_.size());
}

int MessageEngine::node_of(int rank) const {
  util::require(rank >= 0 && rank < rank_count(), [&] {
    return "MessageEngine: invalid rank " + std::to_string(rank);
  });
  return rank_to_node_[static_cast<std::size_t>(rank)];
}

Request MessageEngine::alloc_request(int rank) {
  auto& table = requests_[static_cast<std::size_t>(rank)];
  table.emplace_back();
  return Request{static_cast<std::uint32_t>(table.size() - 1)};
}

bool MessageEngine::request_done(int rank, Request request) const {
  util::require(request.valid(), "MessageEngine: invalid request");
  const auto& table = requests_[static_cast<std::size_t>(rank)];
  util::require(request.id < table.size(),
                "MessageEngine: unknown request id");
  return table[request.id].done;
}

void MessageEngine::set_waiter(int rank, Request request,
                               std::function<void()> resume) {
  auto& state = requests_[static_cast<std::size_t>(rank)][request.id];
  util::require(!state.done, "MessageEngine: waiter on completed request");
  util::require(!state.waiter, "MessageEngine: request already has a waiter");
  state.waiter = std::move(resume);
  ++waiters_;
}

void MessageEngine::cancel_waiter(int rank, Request request) {
  auto& state = requests_[static_cast<std::size_t>(rank)][request.id];
  util::require(!state.done,
                "MessageEngine: cancel_waiter on completed request");
  if (state.waiter) --waiters_;
  state.waiter = nullptr;
}

void MessageEngine::complete_request(int rank, std::uint32_t id) {
  if (id == Request::kInvalid) return;
  auto& state = requests_[static_cast<std::size_t>(rank)][id];
  state.done = true;
  if (state.waiter) {
    // Deliver on the event loop, never synchronously, so that a completion
    // arising inside another rank's call cannot re-enter coroutine frames.
    machine_.engine().after(0, std::move(state.waiter));
    state.waiter = nullptr;
    --waiters_;
  }
}

std::vector<MessageEngine::PendingWait> MessageEngine::pending_waits() const {
  std::vector<PendingWait> waits;
  waits.reserve(waiters_);
  for (std::size_t rank = 0; rank < requests_.size(); ++rank) {
    const auto& table = requests_[rank];
    for (std::size_t id = 0; id < table.size(); ++id) {
      const RequestState& state = table[id];
      if (!state.waiter) continue;
      PendingWait wait;
      wait.rank = static_cast<int>(rank);
      wait.is_send = state.is_send;
      wait.peer = state.peer;
      wait.tag = state.tag;
      wait.bytes = state.bytes;
      wait.request = static_cast<std::uint32_t>(id);
      waits.push_back(wait);
    }
  }
  return waits;
}

void MessageEngine::erase_if_drained(ChannelMap::iterator slot) {
  if (slot->second.unmatched_sends.empty() &&
      slot->second.unmatched_recvs.empty()) {
    channels_.erase(slot);
  }
}

void MessageEngine::start_transfer(const std::shared_ptr<Message>& message,
                                   sim::Time extra_delay) {
  message->transfer_started = true;
  auto begin = [this, message] {
    machine_.transfer(node_of(message->src), node_of(message->dst),
                      message->bytes, [this, message] { on_arrival(message); });
  };
  if (extra_delay > 0) {
    machine_.engine().after(extra_delay, std::move(begin));
  } else {
    begin();
  }
}

void MessageEngine::on_arrival(const std::shared_ptr<Message>& message) {
  message->arrived = true;
  ++delivered_;
  complete_request(message->src, message->send_req);
  if (message->recv_posted) {
    complete_request(message->dst, message->recv_req);
  }
}

Request MessageEngine::post_send(int src, int dst, Bytes bytes, int tag) {
  util::require(src >= 0 && src < rank_count() && dst >= 0 &&
                    dst < rank_count(),
                "post_send: rank out of range");
  const Request request = alloc_request(src);
  {
    RequestState& state = requests_[static_cast<std::size_t>(src)][request.id];
    state.is_send = true;
    state.peer = dst;
    state.tag = tag;
    state.bytes = bytes;
  }

  auto message = std::make_shared<Message>();
  message->src = src;
  message->dst = dst;
  message->tag = tag;
  message->bytes = bytes;
  message->eager = bytes <= config_.eager_threshold;
  message->send_req = request.id;

  const auto slot = channels_.try_emplace(ChannelKey{src, dst, tag}).first;
  Channel& channel = slot->second;
  if (!channel.unmatched_recvs.empty()) {
    // A receive was already posted: adopt its request and start immediately.
    auto recv_holder = channel.unmatched_recvs.front();
    channel.unmatched_recvs.pop_front();
    erase_if_drained(slot);
    message->recv_posted = true;
    message->recv_req = recv_holder->recv_req;
    const sim::Time handshake =
        message->eager ? 0.0
                       : config_.rendezvous_handshake_latencies *
                             machine_.config().latency;
    start_transfer(message, handshake);
    return request;
  }

  if (message->eager) {
    // Eager: bytes leave immediately whether or not the receiver is ready.
    start_transfer(message, 0.0);
  }
  channel.unmatched_sends.push_back(std::move(message));
  return request;
}

Request MessageEngine::post_recv(int dst, int src, int tag) {
  util::require(src >= 0 && src < rank_count() && dst >= 0 &&
                    dst < rank_count(),
                "post_recv: rank out of range");
  const Request request = alloc_request(dst);
  {
    RequestState& state = requests_[static_cast<std::size_t>(dst)][request.id];
    state.is_send = false;
    state.peer = src;
    state.tag = tag;
  }

  const auto slot = channels_.try_emplace(ChannelKey{src, dst, tag}).first;
  Channel& channel = slot->second;
  // Match the oldest not-yet-received send on this channel (FIFO ordering).
  for (auto it = channel.unmatched_sends.begin();
       it != channel.unmatched_sends.end(); ++it) {
    if ((*it)->recv_posted) continue;
    auto message = *it;
    channel.unmatched_sends.erase(it);
    erase_if_drained(slot);
    message->recv_posted = true;
    message->recv_req = request.id;
    if (message->eager) {
      if (message->arrived) {
        complete_request(dst, request.id);
      }
      // else: in flight; arrival completes the request.
    } else {
      const sim::Time handshake = config_.rendezvous_handshake_latencies *
                                  machine_.config().latency;
      start_transfer(message, handshake);
    }
    return request;
  }

  // No matching send yet: park the receive.
  auto holder = std::make_shared<Message>();
  holder->src = src;
  holder->dst = dst;
  holder->tag = tag;
  holder->recv_posted = true;
  holder->recv_req = request.id;
  channel.unmatched_recvs.push_back(std::move(holder));
  return request;
}

}  // namespace psk::mpi
