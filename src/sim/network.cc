#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/error.h"

namespace psk::sim {

Network::Network(Engine& engine, const NetworkConfig& config)
    : engine_(engine),
      topo_(config.topology, config.node_count),
      latency_(config.latency),
      local_bandwidth_(config.local_bandwidth_bps),
      local_latency_(config.local_latency),
      incremental_(
          config.sharing == NetworkConfig::Sharing::kIncremental ||
          (config.sharing == NetworkConfig::Sharing::kAuto &&
           !config.topology.is_crossbar())),
      cap_(static_cast<std::size_t>(topo_.link_count()), config.bandwidth_bps),
      lfault_(static_cast<std::size_t>(topo_.link_count()), 0),
      link_active_(static_cast<std::size_t>(topo_.link_count()), 0),
      share_(static_cast<std::size_t>(topo_.link_count()), 0.0),
      node_fault_depth_(static_cast<std::size_t>(config.node_count), 0) {
  util::require(config.node_count >= 1, "Network: need at least one node");
  util::require(config.bandwidth_bps > 0,
                "Network: bandwidth must be positive");
  util::require(config.local_bandwidth_bps > 0,
                "Network: local bandwidth must be positive");
  util::require(config.latency >= 0 && config.local_latency >= 0,
                "Network: latency must be non-negative");
  if (incremental_) {
    link_flows_.resize(static_cast<std::size_t>(topo_.link_count()));
  }
}

void Network::check_node(int node) const {
  util::require(node >= 0 && node < topo_.node_count(), [&] {
    return "Network: node index " + std::to_string(node) + " out of range [0," +
           std::to_string(topo_.node_count()) + ")";
  });
}

void Network::check_link(LinkId link) const {
  util::require(link >= 0 && link < topo_.link_count(), [&] {
    return "Network: link id " + std::to_string(link) + " out of range [0," +
           std::to_string(topo_.link_count()) + ")";
  });
}

bool Network::path_faulted(const LinkPath& path) const {
  for (LinkId link : path) {
    if (lfault_[static_cast<std::size_t>(link)] > 0) return true;
  }
  return false;
}

void Network::link_join(LinkId link) {
  ++link_active_[static_cast<std::size_t>(link)];
  refresh_share(link);
}

void Network::link_leave(LinkId link) {
  --link_active_[static_cast<std::size_t>(link)];
  refresh_share(link);
}

void Network::refresh_share(LinkId link) {
  const auto l = static_cast<std::size_t>(link);
  // An idle link's share is never read; it is refreshed when a flow joins.
  if (link_active_[l] > 0) share_[l] = cap_[l] / link_active_[l];
}

// --- Link-addressed API ----------------------------------------------------

double Network::link_capacity(LinkId link) const {
  check_link(link);
  return cap_[static_cast<std::size_t>(link)];
}

void Network::set_link_capacity(LinkId link, double bandwidth_bps) {
  check_link(link);
  util::require(bandwidth_bps > 0, "Network: bandwidth must be positive");
  // Settling reads rates only, so the new capacity can land first.
  cap_[static_cast<std::size_t>(link)] = bandwidth_bps;
  refresh_share(link);
  if (!incremental_) {
    sync();
    rerate();
    return;
  }
  inc_links_changed(&link, &link + 1);
}

void Network::push_fault_on(LinkId link) {
  check_link(link);
  if (!incremental_) {
    sync();
    ++lfault_[static_cast<std::size_t>(link)];
    recount();
    rerate();
    return;
  }
  if (++lfault_[static_cast<std::size_t>(link)] != 1) return;
  // The link just went dark: every flow crossing it pauses and releases its
  // share on the rest of its path, so only those paths' flows re-rate.
  ++epoch_;
  scratch_affected_.clear();
  inc_collect(link, scratch_affected_);
  std::vector<LinkId>& touched = scratch_touched_;
  touched.clear();
  for (int id : scratch_affected_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    inc_settle(flow);
    ++flow.faulted_links;
    if (flow.faulted_links == 1) inc_pause(id, touched);
  }
  scratch_ripple_.clear();
  for (LinkId t : touched) inc_collect(t, scratch_ripple_);
  for (int id : scratch_ripple_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    if (flow.faulted_links > 0) continue;
    inc_settle(flow);
    inc_rerate_flow(id);
  }
  inc_reschedule();
}

void Network::pop_fault_on(LinkId link) {
  check_link(link);
  util::require(lfault_[static_cast<std::size_t>(link)] > 0,
                "Network::pop_fault_on: link not faulted");
  if (!incremental_) {
    sync();
    --lfault_[static_cast<std::size_t>(link)];
    recount();
    rerate();
    return;
  }
  if (--lfault_[static_cast<std::size_t>(link)] != 0) return;
  ++epoch_;
  scratch_affected_.clear();
  inc_collect(link, scratch_affected_);
  std::vector<LinkId>& touched = scratch_touched_;
  touched.clear();
  // Two phases: restore every resumed flow's link shares first, then rate
  // anything touching those links -- rates must see the final counts.
  for (int id : scratch_affected_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    inc_settle(flow);  // rate was zero while paused: no bytes move
    --flow.faulted_links;
    if (flow.faulted_links == 0) inc_unpause(id, touched);
  }
  for (int id : scratch_affected_) {
    if (pool_[static_cast<std::size_t>(id)].faulted_links == 0) {
      inc_rerate_flow(id);
    }
  }
  scratch_ripple_.clear();
  for (LinkId t : touched) inc_collect(t, scratch_ripple_);
  for (int id : scratch_ripple_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    if (flow.faulted_links > 0) continue;
    inc_settle(flow);
    inc_rerate_flow(id);
  }
  inc_reschedule();
}

bool Network::link_healthy(LinkId link) const {
  check_link(link);
  return lfault_[static_cast<std::size_t>(link)] == 0;
}

// --- Node-addressed conveniences -------------------------------------------

void Network::set_link_bandwidth(int node, double bandwidth_bps) {
  check_node(node);
  util::require(bandwidth_bps > 0, "Network: bandwidth must be positive");
  const LinkId up = topo_.uplink(node);
  const LinkId down = topo_.downlink(node);
  cap_[static_cast<std::size_t>(up)] = bandwidth_bps;
  cap_[static_cast<std::size_t>(down)] = bandwidth_bps;
  refresh_share(up);
  refresh_share(down);
  if (!incremental_) {
    // One settle/re-rate pass for both directions.
    sync();
    rerate();
    return;
  }
  const LinkId links[2] = {up, down};
  inc_links_changed(links, links + 2);
}

void Network::node_fault_span_begin(int node) {
  if (obs_ != nullptr &&
      node_fault_depth_[static_cast<std::size_t>(node)] == 1) {
    fault_spans_[static_cast<std::size_t>(node)] =
        obs_->tracer().begin(obs::Recorder::kNetPid, node, "link-down",
                             "fault", engine_.now());
  }
}

void Network::node_fault_span_end(int node) {
  if (obs_ != nullptr &&
      node_fault_depth_[static_cast<std::size_t>(node)] == 0 &&
      fault_spans_[static_cast<std::size_t>(node)] != obs::Tracer::kNoSpan) {
    obs_->tracer().end(fault_spans_[static_cast<std::size_t>(node)],
                       engine_.now());
    fault_spans_[static_cast<std::size_t>(node)] = obs::Tracer::kNoSpan;
  }
}

void Network::push_link_fault(int node) {
  check_node(node);
  const LinkId up = topo_.uplink(node);
  const LinkId down = topo_.downlink(node);
  if (!incremental_) {
    sync();
    ++lfault_[static_cast<std::size_t>(up)];
    ++lfault_[static_cast<std::size_t>(down)];
    ++node_fault_depth_[static_cast<std::size_t>(node)];
    node_fault_span_begin(node);
    recount();
    rerate();
    return;
  }
  ++node_fault_depth_[static_cast<std::size_t>(node)];
  node_fault_span_begin(node);
  push_fault_on(up);
  push_fault_on(down);
}

void Network::pop_link_fault(int node) {
  check_node(node);
  util::require(node_fault_depth_[static_cast<std::size_t>(node)] > 0,
                "Network::pop_link_fault: link not faulted");
  const LinkId up = topo_.uplink(node);
  const LinkId down = topo_.downlink(node);
  if (!incremental_) {
    sync();
    --lfault_[static_cast<std::size_t>(up)];
    --lfault_[static_cast<std::size_t>(down)];
    --node_fault_depth_[static_cast<std::size_t>(node)];
    node_fault_span_end(node);
    recount();
    rerate();
    return;
  }
  --node_fault_depth_[static_cast<std::size_t>(node)];
  node_fault_span_end(node);
  pop_fault_on(up);
  pop_fault_on(down);
}

bool Network::link_up(int node) const {
  check_node(node);
  return lfault_[static_cast<std::size_t>(topo_.uplink(node))] == 0 &&
         lfault_[static_cast<std::size_t>(topo_.downlink(node))] == 0;
}

// --- Traffic ----------------------------------------------------------------

void Network::transfer(int src, int dst, std::uint64_t bytes,
                       std::function<void()> on_complete) {
  check_node(src);
  check_node(dst);
  if (src == dst) {
    // Intra-node message: shared-memory copy, no link involvement.
    if (obs_local_bytes_ != nullptr) {
      obs_local_bytes_->add(static_cast<double>(bytes));
    }
    const Time duration =
        local_latency_ + static_cast<double>(bytes) / local_bandwidth_;
    engine_.after(duration, std::move(on_complete));
    return;
  }
  if (!incremental_) {
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.path = topo_.path(src, dst);
    flow.remaining = static_cast<double>(bytes);
    flow.on_complete = std::move(on_complete);
    // The flow joins the fluid system only after the fixed latency,
    // modelling propagation plus protocol stack traversal.
    engine_.after(latency_, [this, flow = std::move(flow)]() mutable {
      admit(std::move(flow));
    });
    return;
  }
  IncFlow flow;
  flow.src = src;
  flow.dst = dst;
  flow.path = topo_.path(src, dst);
  flow.remaining = static_cast<double>(bytes);
  flow.on_complete = std::move(on_complete);
  engine_.after(latency_, [this, flow = std::move(flow)]() mutable {
    inc_admit(std::move(flow));
  });
}

// --- Dense core --------------------------------------------------------------
// The seed's arithmetic, generalized from the two crossbar endpoint links to
// an arbitrary link path.  On the crossbar the per-link counters and the
// min-accumulation over {uplink(src), downlink(dst)} perform the exact same
// floating-point operations in the same order as the original
// min(up/out, down/in), keeping results byte-identical.  The counts and
// shares are kept up to date as flows come and go, so an event recomputes
// no per-link state; a cached share is the same quotient cap / count the
// seed divided out per flow.

void Network::admit(Flow flow) {
  sync();
  flow.paused = path_faulted(flow.path);
  if (!flow.paused) {
    for (LinkId link : flow.path) link_join(link);
  }
  flows_.push_back(std::move(flow));
  observe_flows();
  rerate();
}

void Network::recount() {
  std::fill(link_active_.begin(), link_active_.end(), 0);
  for (Flow& flow : flows_) {
    // Paused flows (any link on the path is faulted) progress at rate zero
    // and release their share of the healthy links to active traffic.
    flow.paused = path_faulted(flow.path);
    if (flow.paused) continue;
    for (LinkId link : flow.path) {
      ++link_active_[static_cast<std::size_t>(link)];
    }
  }
  for (LinkId link = 0; link < topo_.link_count(); ++link) refresh_share(link);
}

void Network::sync() {
  const Time now = engine_.now();
  const double elapsed = now - last_sync_;
  last_sync_ = now;
  if (elapsed <= 0) return;
  for (Flow& flow : flows_) {
    // Rates are constant between syncs, so rate * elapsed is the exact byte
    // count each flow moved in the interval.
    const double moved = flow.rate * elapsed;
    flow.remaining -= moved;
    if (obs_ != nullptr) {
      obs_tx_bytes_[static_cast<std::size_t>(flow.src)]->add(moved);
    }
  }
}

void Network::rerate() {
  pending_.cancel();
  if (flows_.empty()) return;

  Time min_eta = std::numeric_limits<Time>::infinity();
  for (Flow& flow : flows_) {
    if (flow.paused) {
      flow.rate = 0.0;
      continue;
    }
    double rate = std::numeric_limits<double>::infinity();
    for (LinkId link : flow.path) {
      rate = std::min(rate, share_[static_cast<std::size_t>(link)]);
    }
    flow.rate = rate;
    const Time eta = std::max(0.0, flow.remaining) / flow.rate;
    min_eta = std::min(min_eta, eta);
  }
  if (min_eta == std::numeric_limits<Time>::infinity()) return;
  pending_ = engine_.after(min_eta, [this] { on_completion_event(); });
}

void Network::on_completion_event() {
  sync();
  // Complete the minimum-remaining flow(s): the pending event is cancelled
  // on every flow change, so when it fires the minimum flow is due now even
  // if floating-point rounding left a sliver of bytes whose ETA would be
  // below the clock's ULP.
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    // Paused (rate-zero) flows never complete here, and must not drag
    // min_remaining down: a nearly-finished flow stuck behind a link fault
    // would otherwise "complete" an unrelated active flow early.
    if (flow.rate > 0) {
      min_remaining = std::min(min_remaining, flow.remaining);
    }
  }
  if (min_remaining == std::numeric_limits<double>::infinity()) return;

  // Other flows ride along only when their own ETA past this instant is
  // below the clock's resolution at the current time -- i.e. when rerate()
  // could not schedule their completion at a later timestamp anyway.  An
  // absolute byte epsilon is wrong here: on a slow link, a fixed sliver of
  // bytes can represent real simulated time, and completing a distinct
  // small control message early reorders events.
  const Time clock_ulp =
      std::max(engine_.now() * 1e-12, std::numeric_limits<Time>::min());
  std::vector<std::function<void()>> finished = std::move(finished_);
  finished.clear();
  // Stable compaction: survivors keep admission order, and callbacks fire
  // in it.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (flow.rate > 0 &&
        flow.remaining <= min_remaining + flow.rate * clock_ulp) {
      finished.push_back(std::move(flow.on_complete));
      for (LinkId link : flow.path) link_leave(link);
    } else {
      if (kept != i) flows_[kept] = std::move(flow);
      ++kept;
    }
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
               flows_.end());
  observe_flows();
  rerate();
  for (auto& callback : finished) callback();
  finished.clear();
  finished_ = std::move(finished);
}

// --- Incremental core --------------------------------------------------------
// Per-link flow sets with lazy settlement: each flow tracks the time its
// byte count was last up to date, and only flows whose rate actually changes
// get settled and re-rated.  The affected set of any change is the union of
// flows crossing the touched links, deduplicated with an epoch mark; flow
// completions come from a binary heap ordered by (ETA, id), updated in place
// through each flow's heap position, so each event costs
// O(affected * log flows) instead of O(all flows).

void Network::inc_settle(IncFlow& flow) {
  const Time now = engine_.now();
  const double elapsed = now - flow.settled_at;
  flow.settled_at = now;
  if (elapsed <= 0) return;
  const double moved = flow.rate * elapsed;
  flow.remaining -= moved;
  if (obs_ != nullptr) {
    obs_tx_bytes_[static_cast<std::size_t>(flow.src)]->add(moved);
  }
}

void Network::inc_rerate_flow(int id) {
  IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  double rate = 0.0;
  if (flow.faulted_links == 0) {
    rate = std::numeric_limits<double>::infinity();
    for (LinkId link : flow.path) {
      // The flow counts itself on each of its links, so every share is set.
      rate = std::min(rate, share_[static_cast<std::size_t>(link)]);
    }
  }
  flow.rate = rate;
  if (rate > 0.0) {
    flow.eta = engine_.now() + std::max(0.0, flow.remaining) / rate;
    eta_set(id);
  } else {
    eta_erase(id);
  }
}

void Network::eta_place(std::size_t pos, EtaEntry entry) {
  eta_heap_[pos] = entry;
  pool_[static_cast<std::size_t>(entry.id)].heap_pos =
      static_cast<std::int32_t>(pos);
}

std::size_t Network::eta_sift_up(std::size_t pos) {
  const EtaEntry entry = eta_heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(entry < eta_heap_[parent])) break;
    eta_place(pos, eta_heap_[parent]);
    pos = parent;
  }
  eta_place(pos, entry);
  return pos;
}

void Network::eta_sift_down(std::size_t pos) {
  const EtaEntry entry = eta_heap_[pos];
  const std::size_t size = eta_heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && eta_heap_[child + 1] < eta_heap_[child]) ++child;
    if (!(eta_heap_[child] < entry)) break;
    eta_place(pos, eta_heap_[child]);
    pos = child;
  }
  eta_place(pos, entry);
}

void Network::eta_set(int id) {
  const IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  if (flow.heap_pos < 0) {
    eta_heap_.push_back({flow.eta, id});
    eta_sift_up(eta_heap_.size() - 1);
    return;
  }
  const auto pos = static_cast<std::size_t>(flow.heap_pos);
  eta_heap_[pos].eta = flow.eta;
  eta_sift_down(eta_sift_up(pos));
}

void Network::eta_erase(int id) {
  IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  if (flow.heap_pos < 0) return;
  const auto pos = static_cast<std::size_t>(flow.heap_pos);
  flow.heap_pos = -1;
  const EtaEntry last = eta_heap_.back();
  eta_heap_.pop_back();
  if (pos == eta_heap_.size()) return;  // it was the last entry
  eta_heap_[pos] = last;
  eta_sift_down(eta_sift_up(pos));
}

void Network::inc_collect(LinkId link, std::vector<int>& out) {
  for (std::int32_t id : link_flows_[static_cast<std::size_t>(link)]) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    if (flow.mark == epoch_) continue;
    flow.mark = epoch_;
    out.push_back(id);
  }
}

void Network::inc_admit(IncFlow flow) {
  flow.settled_at = engine_.now();
  flow.faulted_links = 0;
  for (LinkId link : flow.path) {
    if (lfault_[static_cast<std::size_t>(link)] > 0) ++flow.faulted_links;
  }
  int id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    pool_[static_cast<std::size_t>(id)] = std::move(flow);
  } else {
    id = static_cast<int>(pool_.size());
    pool_.push_back(std::move(flow));
  }
  IncFlow& f = pool_[static_cast<std::size_t>(id)];
  f.alive = true;
  ++inc_alive_;

  ++epoch_;
  f.mark = epoch_;  // keep the new flow out of its own affected set
  scratch_affected_.clear();
  for (int h = 0; h < f.path.count; ++h) {
    const LinkId link = f.path.links[static_cast<std::size_t>(h)];
    inc_collect(link, scratch_affected_);
    f.slot[static_cast<std::size_t>(h)] =
        static_cast<std::int32_t>(link_flows_[static_cast<std::size_t>(link)]
                                      .size());
    link_flows_[static_cast<std::size_t>(link)].push_back(
        static_cast<std::int32_t>(id));
    if (f.faulted_links == 0) link_join(link);
  }
  for (int a : scratch_affected_) {
    IncFlow& other = pool_[static_cast<std::size_t>(a)];
    if (other.faulted_links > 0) continue;
    inc_settle(other);
    inc_rerate_flow(a);
  }
  inc_rerate_flow(id);
  inc_reschedule();
  observe_flows();
}

void Network::inc_remove(int id) {
  IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  for (int h = 0; h < flow.path.count; ++h) {
    const LinkId link = flow.path.links[static_cast<std::size_t>(h)];
    auto& members = link_flows_[static_cast<std::size_t>(link)];
    const std::int32_t s = flow.slot[static_cast<std::size_t>(h)];
    const std::int32_t moved = members.back();
    members[static_cast<std::size_t>(s)] = moved;
    members.pop_back();
    if (moved != id) {
      // The swapped-in flow's slot entry for this link now points at s.
      IncFlow& m = pool_[static_cast<std::size_t>(moved)];
      for (int k = 0; k < m.path.count; ++k) {
        if (m.path.links[static_cast<std::size_t>(k)] == link) {
          m.slot[static_cast<std::size_t>(k)] = s;
          break;
        }
      }
    }
    if (flow.faulted_links == 0) link_leave(link);
  }
  eta_erase(id);
  flow.alive = false;
  flow.on_complete = nullptr;
  --inc_alive_;
  free_slots_.push_back(id);
}

void Network::inc_pause(int id, std::vector<LinkId>& touched) {
  IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  for (LinkId link : flow.path) {
    link_leave(link);
    touched.push_back(link);
  }
  flow.rate = 0.0;
  eta_erase(id);
}

void Network::inc_unpause(int id, std::vector<LinkId>& touched) {
  IncFlow& flow = pool_[static_cast<std::size_t>(id)];
  for (LinkId link : flow.path) {
    link_join(link);
    touched.push_back(link);
  }
}

void Network::inc_links_changed(const LinkId* first, const LinkId* last) {
  ++epoch_;
  scratch_affected_.clear();
  for (const LinkId* it = first; it != last; ++it) {
    inc_collect(*it, scratch_affected_);
  }
  for (int id : scratch_affected_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    if (flow.faulted_links > 0) continue;
    inc_settle(flow);
    inc_rerate_flow(id);
  }
  inc_reschedule();
}

void Network::inc_reschedule() {
  pending_.cancel();
  if (eta_heap_.empty()) return;
  pending_ =
      engine_.at(eta_heap_.front().eta, [this] { inc_on_completion_event(); });
}

void Network::inc_on_completion_event() {
  const Time now = engine_.now();
  // Same ride-along rule as the dense core: anything whose ETA is within the
  // clock's resolution of this instant completes now -- rescheduling it
  // could not produce a later timestamp anyway.
  const Time clock_ulp =
      std::max(now * 1e-12, std::numeric_limits<Time>::min());
  ++epoch_;
  std::vector<LinkId>& touched = scratch_touched_;
  touched.clear();
  std::vector<std::function<void()>> finished = std::move(finished_);
  finished.clear();
  while (!eta_heap_.empty() && eta_heap_.front().eta <= now + clock_ulp) {
    const int id = eta_heap_.front().id;
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    inc_settle(flow);
    flow.mark = epoch_;  // removed below; never part of the affected set
    for (LinkId link : flow.path) touched.push_back(link);
    finished.push_back(std::move(flow.on_complete));
    inc_remove(id);
  }
  scratch_ripple_.clear();
  for (LinkId t : touched) inc_collect(t, scratch_ripple_);
  for (int id : scratch_ripple_) {
    IncFlow& flow = pool_[static_cast<std::size_t>(id)];
    if (flow.faulted_links > 0) continue;
    inc_settle(flow);
    inc_rerate_flow(id);
  }
  inc_reschedule();
  observe_flows();
  for (auto& callback : finished) callback();
  finished.clear();
  finished_ = std::move(finished);
}

// --- Observability -----------------------------------------------------------

void Network::attach_obs(obs::Recorder* recorder) {
  obs_ = recorder;
  if (recorder == nullptr) {
    obs_tx_bytes_.clear();
    obs_local_bytes_ = nullptr;
    obs_flows_gauge_ = nullptr;
    obs_flows_hist_ = nullptr;
    fault_spans_.clear();
    return;
  }
  obs::MetricsRegistry& metrics = recorder->metrics();
  obs_tx_bytes_.resize(static_cast<std::size_t>(topo_.node_count()));
  for (int node = 0; node < topo_.node_count(); ++node) {
    obs_tx_bytes_[static_cast<std::size_t>(node)] =
        &metrics.counter("net.node." + std::to_string(node) + ".tx_bytes");
  }
  obs_local_bytes_ = &metrics.counter("net.local_bytes");
  obs_flows_gauge_ = &metrics.gauge("net.active_flows");
  obs_flows_hist_ = &metrics.histogram("net.active_flows.occupancy",
                                       {0.0, 1.0, 2.0, 4.0, 8.0, 16.0});
  fault_spans_.assign(static_cast<std::size_t>(topo_.node_count()),
                      obs::Tracer::kNoSpan);
  recorder->tracer().set_process_name(obs::Recorder::kNetPid, "network");
  observe_flows();
}

void Network::observe_flows() {
  if (obs_flows_gauge_ == nullptr) return;
  const double count = static_cast<double>(active_flows());
  const Time now = engine_.now();
  obs_flows_gauge_->set(now, count);
  obs_flows_hist_->observe(now, count);
}

}  // namespace psk::sim
