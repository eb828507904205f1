// Flow-level network model of a switched cluster.
//
// A sim::Topology maps each src -> dst transfer to a path of directed links
// (crossbar: {uplink(src), downlink(dst)}; fat-tree / dragonfly: up to five
// shared switch links).  A message in flight is a fluid "flow" whose rate is
// the equal-split share of its tightest path link:
//     rate(f) = min over l in path(f) of  capacity(l) / active_flows(l)
// Rates are recomputed whenever a flow starts, finishes, or a link changes.
// This captures the effects the paper manipulates -- shaped (reduced) link
// bandwidth and bandwidth division under competing traffic -- without
// packet-level detail, and on the crossbar reduces exactly to the paper's
//     min( up[src] / active_out[src],  down[dst] / active_in[dst] ).
//
// Two interchangeable flow cores implement that model.  Both keep one
// active-flow count per link, updated on admission, completion and pause,
// and a cached per-link share capacity / count, refreshed only when that
// link's count or capacity changes:
//   dense        settles every flow and re-rates every flow on every change
//                -- the seed's arithmetic, kept bit for bit so crossbar
//                results stay byte-identical.  Flows sit in one contiguous
//                vector in admission order; an event costs one pass of
//                `remaining -= rate * elapsed` and one pass of min-over-path
//                shares, O(flows * path length).  Only a fault change
//                recounts the links from scratch.  Doubles as the reference
//                model for the incremental core's tests.
//   incremental  per-link flow sets with lazy settlement and an indexed
//                binary heap of completion ETAs ordered by (eta, flow id):
//                a change settles and re-rates only flows sharing a link
//                with the affected links, O(affected * (path length +
//                log flows)) per event, which is what makes thousand-rank
//                hierarchical runs tractable
// NetworkConfig::sharing picks a core; kAuto uses dense on the crossbar
// (byte-identity) and incremental on hierarchical topologies (scale).
//
// Each transfer pays a fixed propagation/software-stack latency before its
// bytes join the fluid system.  Competing traffic is other transfers sharing
// a link.  Same-node transfers bypass the network and use a fast local
// memory channel.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace psk::sim {

/// Named-options constructor argument for Network (the option-struct idiom;
/// designated initializers read at the call site).  Defaults mirror the
/// paper's testbed link characteristics.
struct NetworkConfig {
  /// How flow rates are recomputed after a change; see the file comment.
  enum class Sharing : std::uint8_t {
    kAuto,         // dense on crossbar, incremental otherwise
    kDense,        // force the eager full-recompute core
    kIncremental,  // force the per-link incremental core
  };

  int node_count = 1;
  /// Bytes/second per link direction.
  double bandwidth_bps = 60.0e6;
  /// One-way message latency in seconds.
  Time latency = 50.0e-6;
  double local_bandwidth_bps = 1.0e9;
  Time local_latency = 2.0e-6;
  TopologySpec topology{};
  Sharing sharing = Sharing::kAuto;
};

class Network {
 public:
  explicit Network(Engine& engine, const NetworkConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }
  int node_count() const { return topo_.node_count(); }
  int link_count() const { return topo_.link_count(); }
  Time latency() const { return latency_; }

  // --- Link-addressed API ------------------------------------------------
  // Links are the unit of capacity and fault state; node-addressed calls
  // below are conveniences over the node's two access links
  // (topology().uplink(node) / downlink(node)).

  double link_capacity(LinkId link) const;
  void set_link_capacity(LinkId link, double bandwidth_bps);

  /// Fault hooks: while a link's fault depth is positive it carries zero
  /// bytes, pausing (not dropping) every flow routed across it -- bytes in
  /// flight resume when the last fault clears.  Depths nest so overlapping
  /// causes compose.  Any link on a path can fault, not just the access
  /// links: a faulted fat-tree core or dragonfly global link stalls exactly
  /// the flows routed through it.
  void push_fault_on(LinkId link);
  void pop_fault_on(LinkId link);
  bool link_healthy(LinkId link) const;

  // --- Node-addressed conveniences ---------------------------------------

  /// Overrides both directions of one node's access link (the iproute2-style
  /// shaper used by the sharing scenarios) in a single settle/re-rate pass.
  void set_link_bandwidth(int node, double bandwidth_bps);

  /// Faults both directions of the node's access link (black-out, flap, or
  /// crashed node).  Intra-node (shared-memory) copies are unaffected.
  void push_link_fault(int node);
  void pop_link_fault(int node);
  bool link_up(int node) const;

  // --- Traffic ------------------------------------------------------------

  /// Starts a transfer of `bytes` from `src` to `dst`; `on_complete` fires
  /// when the last byte arrives.  Zero-byte transfers still pay latency.
  void transfer(int src, int dst, std::uint64_t bytes,
                std::function<void()> on_complete);

  /// Transfers past their latency and still carrying bytes.  Used by
  /// deadlock detection: a paused flow on a faulted link counts -- it
  /// resumes when the fault clears, so the simulation is not quiescent.
  std::size_t active_flows() const {
    return incremental_ ? inc_alive_ : flows_.size();
  }

  /// Starts feeding the recorder: per-node transmitted-bytes counters, a
  /// time-weighted active-flow gauge plus occupancy histogram, and
  /// "link-down" spans on the network track for node-level faults.  Null
  /// handles keep every hot-path hook down to a single pointer check.
  void attach_obs(obs::Recorder* recorder);

 private:
  // --- Dense core (seed-equivalent arithmetic) ---------------------------

  struct Flow {
    int src;
    int dst;
    LinkPath path;
    double remaining;  // bytes
    double rate = 0.0;
    bool paused = false;  // a path link is faulted; not in link_active_
    std::function<void()> on_complete;
  };

  /// Accounts bytes moved since the last rate change (every flow).
  void sync();

  /// Recomputes per-flow rates and the single next-completion event.
  void rerate();

  /// Re-derives every flow's paused flag and the per-link counts and shares
  /// after a fault depth changed.
  void recount();

  void on_completion_event();
  void admit(Flow flow);

  // --- Incremental core ---------------------------------------------------

  struct IncFlow {
    int src = 0;
    int dst = 0;
    LinkPath path;
    double remaining = 0.0;  // bytes
    double rate = 0.0;
    Time settled_at = 0.0;
    Time eta = 0.0;  // completion time, valid iff heap_pos >= 0
    std::function<void()> on_complete;
    // Index of this flow within link_flows_[path.links[i]], per hop.
    std::array<std::int32_t, LinkPath::kMaxLinks> slot{};
    std::uint64_t mark = 0;  // epoch visited marker (affected-set dedup)
    int faulted_links = 0;   // path links with a positive fault depth
    std::int32_t heap_pos = -1;  // index in eta_heap_, -1 when absent
    bool alive = false;
  };

  /// One completion-heap entry; `eta` mirrors pool_[id].eta so sifting
  /// compares without touching the pool.  Ordered by (eta, id).
  struct EtaEntry {
    Time eta;
    int id;
    bool operator<(const EtaEntry& other) const {
      return eta < other.eta || (eta == other.eta && id < other.id);
    }
  };

  /// Accounts one flow's bytes since its own last rate change.
  void inc_settle(IncFlow& flow);

  /// Recomputes one flow's rate from the current per-link active counts and
  /// refreshes its completion-ETA entry.
  void inc_rerate_flow(int id);

  /// Appends the ids of flows crossing `link` not yet seen this epoch.
  void inc_collect(LinkId link, std::vector<int>& out);

  void inc_admit(IncFlow flow);
  void inc_remove(int id);  // unlink from all path links, free the slot
  void inc_pause(int id, std::vector<LinkId>& touched);
  void inc_unpause(int id, std::vector<LinkId>& touched);
  void inc_on_completion_event();
  void inc_reschedule();
  void inc_links_changed(const LinkId* first, const LinkId* last);

  // Completion heap, ordered by (eta, id): the pop order of an ordered set
  // of (eta, id) pairs, with in-place updates through IncFlow::heap_pos.
  void eta_set(int id);    // insert, or move after flow.eta changed
  void eta_erase(int id);  // no-op when absent
  std::size_t eta_sift_up(std::size_t pos);  // returns the final position
  void eta_sift_down(std::size_t pos);
  void eta_place(std::size_t pos, EtaEntry entry);

  // --- Shared -------------------------------------------------------------

  void check_node(int node) const;
  void check_link(LinkId link) const;
  bool path_faulted(const LinkPath& path) const;

  /// A non-paused flow joins / leaves `link`: adjusts link_active_ and the
  /// cached share.
  void link_join(LinkId link);
  void link_leave(LinkId link);
  /// share_[link] = cap_[link] / link_active_[link], when the link is busy.
  void refresh_share(LinkId link);
  void node_fault_span_begin(int node);
  void node_fault_span_end(int node);

  /// Pushes the current flow count to the gauge/histogram; no-op when
  /// unobserved.
  void observe_flows();

  Engine& engine_;
  Topology topo_;
  Time latency_;
  double local_bandwidth_;
  Time local_latency_;
  bool incremental_ = false;
  std::vector<double> cap_;     // per link
  std::vector<int> lfault_;     // per link, nested fault depth
  std::vector<int> link_active_;  // per link: non-paused flows crossing it
  std::vector<double> share_;   // per link: cap_ / link_active_ when busy
  std::vector<int> node_fault_depth_;  // node-level faults, for spans/guards
  Time last_sync_ = 0.0;        // dense core's global settlement clock
  EventQueue::Handle pending_;

  // Finished callbacks of one completion event (either core), kept to
  // reuse its capacity; taken out while the callbacks run.
  std::vector<std::function<void()>> finished_;

  // Dense core state: flows in admission order.
  std::vector<Flow> flows_;

  // Incremental core state.
  std::vector<IncFlow> pool_;
  std::vector<int> free_slots_;
  std::vector<std::vector<std::int32_t>> link_flows_;  // per link: flow ids
  std::vector<EtaEntry> eta_heap_;  // binary min-heap by (eta, id)
  std::uint64_t epoch_ = 0;
  std::size_t inc_alive_ = 0;
  // Batch scratch buffers (reused to keep per-event allocation flat).  Only
  // used before an update batch hands control back to user callbacks.
  std::vector<int> scratch_affected_;
  std::vector<int> scratch_ripple_;
  std::vector<LinkId> scratch_touched_;

  // Observability handles; empty/null when the network is unobserved.
  obs::Recorder* obs_ = nullptr;
  std::vector<obs::Counter*> obs_tx_bytes_;     // per source node
  obs::Counter* obs_local_bytes_ = nullptr;     // same-node copies
  obs::Gauge* obs_flows_gauge_ = nullptr;
  obs::TimeHistogram* obs_flows_hist_ = nullptr;
  std::vector<obs::Tracer::SpanId> fault_spans_;  // per node
};

}  // namespace psk::sim
