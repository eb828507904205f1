// The pskd prediction service: admission control, bounded queueing and
// deterministic execution of uploaded skeletons.
//
// Robustness contract (the reason this layer exists):
//   - Every submitted request produces exactly one response with a definite
//     StatusCode.  Overload sheds with kOverloaded at admission time; it
//     never silently drops.  A per-request answered flag makes the
//     exactly-once property explicit: whichever of worker and supervisor
//     answers first wins, the loser's result is discarded and counted.
//   - The queue is bounded (ServiceOptions::queue_capacity); depth and
//     shed counts are observable through stats()/publish(), and a
//     health() snapshot (queue depth, inflight, uptime) is served to
//     clients for backoff via the kHealth frame -- bypassing admission,
//     so it works precisely when the service is overloaded.
//   - Per-request deadlines are enforced three times: a request whose
//     budget expired while queued fails fast with kTimeout before any
//     simulation work; the remaining budget is propagated into the
//     framework's wall-clock watchdog; and in live mode a *supervisor*
//     thread watches for workers that overrun the deadline anyway (a hung
//     simulation, a chaos-injected stall) -- it answers the request
//     kTimeout, isolates the hung worker (it takes no further work) and
//     spawns a replacement so pool capacity self-heals.
//   - Cooperative cancellation: a request carries an optional cancel flag
//     (set by the session layer when the client disconnects); canceled
//     requests complete with kCanceled instead of burning simulation time.
//   - Nothing refused is retained: an upload that fails to decode, or that
//     strict validation refuses, answers kBadInput and never enters the
//     skeleton store, so its hash is never advertised.
//   - Fault injection (ServiceOptions::chaos, null in production) drives
//     worker stalls and store failures deterministically from a seed, so
//     all of the above is exercised by tests and the ext_chaos soak.
//
// Two drive modes sharing one execution path:
//   - Batch mode (submit() + drain()): admission decisions happen at
//     submit() against the current queue depth, so for a fixed
//     submit/drain schedule the admit/shed pattern -- and, because every
//     measurement is a seeded simulation, every response byte -- is
//     identical at any worker count.  pskd's pipe mode and the
//     deterministic tests use this.
//   - Live mode (start() + submit() + stop()): supervised worker threads
//     pull requests continuously and deliver responses through a callback
//     (from a worker thread) as each completes; the socket transport and
//     the load benchmarks use this.  Modes must not be mixed: the
//     underlying fork-join pool has a single-driver constraint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "obs/metrics.h"
#include "runner/pool.h"
#include "svc/chaos.h"
#include "svc/frame.h"
#include "svc/reservoir.h"
#include "svc/store.h"

namespace psk::svc {

/// Response sink: how a completed request's answer leaves the service.
using Deliver = std::function<void(const ResponseHeader&)>;

struct ServiceOptions {
  /// Bound on requests admitted but not yet executed.  Submissions beyond
  /// it shed with kOverloaded.
  std::size_t queue_capacity = 64;
  /// Worker threads for the execution pool; 0 = hardware concurrency.
  int workers = 0;
  /// Deadline applied when a request does not carry one; 0 disables the
  /// server-side default (requests then only time out if they ask to).
  double default_deadline_seconds = 30.0;
  /// Bounds on the hot-skeleton store's memory tier (svc/store.h): entry
  /// count and total retained canonical bytes.  0 entries disables the
  /// memory tier only; without `store_dir`, predict-by-hash then always
  /// answers kNotFound.
  std::size_t skeleton_store_entries = 256;
  std::size_t skeleton_store_bytes = 256u << 20;
  /// Durable tier for the skeleton store (pskd --store-dir); empty keeps
  /// the store memory-only.  With a directory set, retained skeletons
  /// survive daemon restart (see svc/store.h for the integrity contract).
  std::string store_dir;
  std::size_t store_disk_bytes = 1024u << 20;
  /// Per-status latency reservoir size for publish()'s percentiles.  The
  /// reservoir is seeded and deterministic for a fixed completion order.
  std::size_t latency_reservoir_capacity = 1u << 16;
  /// Live mode self-healing: how far past its deadline a request may run
  /// inside a worker before the supervisor declares the worker hung,
  /// answers kTimeout and replaces the worker; and how often the
  /// supervisor looks.
  double supervisor_grace_seconds = 0.25;
  double supervisor_poll_seconds = 0.02;
  /// Seeded fault injection (svc/chaos.h); null = off, with zero overhead
  /// beyond one pointer test per injection site.
  ChaosSchedule* chaos = nullptr;
  /// Template for per-request frameworks: cluster, ranks, seeds, result
  /// cache.  Per-request wall deadlines overlay onto a copy of this.
  core::FrameworkOptions framework;
};

/// One unit of work submitted to the service.
struct Request {
  RequestHeader header;
  /// Optional cooperative cancel flag; the service checks it at dequeue
  /// and between repetitions.  Null = not cancelable.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Optional per-request response sink.  In live mode a set deliver
  /// overrides the service-wide callback -- this is how socket sessions
  /// route each response back to the connection that asked (the closure
  /// keeps the session alive until its last response is out).
  Deliver deliver;
};

/// Monotonic counters describing service behaviour since construction.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;        // kOverloaded at admission
  std::uint64_t completed = 0;   // responses produced, shed included
  std::uint64_t by_status[static_cast<int>(kLastStatusCode) + 1] = {};
  std::size_t queue_depth = 0;   // current
  std::size_t queue_high_water = 0;
  // Supervisor self-healing (live mode).
  std::uint64_t hung_detected = 0;    // deadline overruns inside a worker
  std::uint64_t workers_replaced = 0; // hung workers isolated + replaced
  std::uint64_t late_results_discarded = 0;  // a hung worker finished after
                                             // the supervisor answered
};

class Service {
 public:
  using Deliver = svc::Deliver;

  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const ServiceOptions& options() const { return options_; }

  /// Submits one request.  Returns the immediate shed response
  /// (kOverloaded) when the queue is full, nullopt when admitted.  In live
  /// mode a shed response is also delivered through the callback, so the
  /// caller can ignore the return value there.
  std::optional<ResponseHeader> submit(Request request);

  /// Batch mode: executes everything admitted since the last drain on the
  /// worker pool and returns the responses in arrival order.  The caller
  /// thread participates as a worker.  Must not be called while live mode
  /// is running.
  std::vector<ResponseHeader> drain();

  /// Live mode: spawns supervised worker threads that pull from the queue
  /// continuously, delivering each response through `deliver` (or the
  /// request's own sink) as it completes, from a worker or supervisor
  /// thread -- and from the submitting thread for shed responses.
  void start(Deliver deliver);
  /// Drains outstanding requests, then stops workers and supervisor.
  /// Idempotent.  Waits for stalled workers to finish (their results are
  /// discarded if the supervisor already answered).
  void stop();

  ServiceStats stats() const;

  /// Liveness snapshot served to clients through the kHealth frame.
  /// Cheap, lock-bounded, safe to call from any thread at any time.
  HealthInfo health() const;

  /// The hot-skeleton store backing predict-by-hash reuse.  Shared by all
  /// sessions submitting into this service.
  SkeletonStore& skeleton_store() { return store_; }
  const SkeletonStore& skeleton_store() const { return store_; }

  /// Publishes stats as obs instruments (svc.* counters, queue depth,
  /// per-status latency percentiles, svc.store.* two-tier counters,
  /// svc.supervisor.* self-healing counters and -- when fault injection is
  /// on -- svc.chaos.<site>.{consulted,injected}).  Call on a fresh
  /// registry.
  void publish(obs::MetricsRegistry& metrics) const;

 private:
  struct Pending {
    Request request;
    /// Wall-clock admission time (steady clock seconds).
    double admitted_at = 0;
    /// Seconds of budget from admission; <= 0 means no deadline.
    double budget_seconds = 0;
  };

  /// One in-flight request: the exactly-once answer gate shared between
  /// the executing worker and the supervisor.
  struct Inflight {
    Pending pending;
    /// Absolute steady-clock deadline; 0 = none.
    double deadline_at = 0;
    std::atomic<bool> answered{false};
  };

  /// A supervised worker slot.  `generation` changes when the supervisor
  /// replaces a hung worker; the stale thread notices and exits without
  /// taking further work (isolation).
  struct WorkerSlot {
    std::thread thread;
    std::uint64_t generation = 0;
    std::shared_ptr<Inflight> current;
  };

  ResponseHeader execute(const Pending& pending);
  ResponseHeader predict(const Pending& pending);
  ResponseHeader construct(const Pending& pending);
  std::optional<skeleton::Skeleton> resolve_skeleton(const Pending& pending,
                                                    ResponseHeader& response);
  std::vector<ResponseHeader> run_batch(std::vector<Pending>& batch);
  void record_response(const ResponseHeader& response, double latency_ms);
  /// Exactly-once answer: wins the inflight's answered flag, records and
  /// delivers.  Returns false (counting a discarded late result) when the
  /// other side answered first.
  bool answer(Inflight& work, const ResponseHeader& response,
              double latency_ms);
  void worker_main(std::size_t slot, std::uint64_t generation);
  void supervisor_main();

  ServiceOptions options_;
  runner::ThreadPool pool_;
  SkeletonStore store_;
  const double constructed_at_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable supervisor_cv_;
  /// Pending requests: vector plus head index, not a deque.  Pending is
  /// larger than libstdc++'s 512-byte deque block, so a deque degenerates
  /// to one allocation per element; here pop-front is head++, batch drain
  /// is an O(1) swap, and the dead prefix is compacted once it dominates.
  std::vector<Pending> queue_;
  std::size_t queue_head_ = 0;
  bool live_ = false;
  bool stopping_ = false;
  bool supervisor_stop_ = false;
  std::vector<WorkerSlot> workers_;
  /// Threads of replaced (hung) workers; joined at stop() once their
  /// stalls end.
  std::vector<std::thread> retired_;
  std::thread supervisor_;
  Deliver deliver_;
  std::atomic<std::uint32_t> executing_{0};

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  /// Completion latencies in milliseconds, per status code, for the
  /// percentile lines in publish().  Seeded reservoirs: bounded forever,
  /// yet late samples still move the percentiles (unlike first-N
  /// retention, which freezes on startup traffic).
  std::vector<LatencyReservoir> latencies_ms_;
};

}  // namespace psk::svc
