#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>
#include <utility>

#include "archive/archive.h"
#include "archive/codec.h"
#include "guard/salvage.h"
#include "guard/validate.h"
#include "scenario/scenario.h"
#include "util/error.h"

namespace psk::svc {

namespace {

/// Wall clock in seconds on the steady (monotonic) clock.
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The canonical wire form of a skeleton: payload codec + PSKARCH1 frame.
/// Equal skeletons encode to equal bytes (the archive layer's canonical
/// property), so fingerprint64 over these bytes is a true content hash.
std::string canonical_skeleton_bytes(const skeleton::Skeleton& skeleton) {
  std::string payload;
  archive::encode(payload, skeleton);
  std::string canonical;
  archive::write_frame(canonical, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return canonical;
}

/// Nearest-rank percentile of `samples` (copied and sorted); 0 when empty.
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.workers),
      store_(StoreOptions{options_.skeleton_store_entries,
                          options_.skeleton_store_bytes, options_.store_dir,
                          options_.store_disk_bytes, options_.chaos}),
      constructed_at_(now_seconds()) {
  latencies_ms_.reserve(static_cast<std::size_t>(kLastStatusCode) + 1);
  for (int code = 0; code <= static_cast<int>(kLastStatusCode); ++code) {
    // Per-status seeds keep the reservoirs independent yet reproducible
    // for a fixed completion order.
    latencies_ms_.emplace_back(options_.latency_reservoir_capacity,
                               0x70736b64u + static_cast<std::uint64_t>(code));
  }
}

Service::~Service() { stop(); }

std::optional<ResponseHeader> Service::submit(Request request) {
  Pending pending;
  pending.admitted_at = now_seconds();
  pending.budget_seconds = request.header.deadline_seconds > 0
                               ? request.header.deadline_seconds
                               : options_.default_deadline_seconds;
  pending.request = std::move(request);

  Deliver deliver_shed;
  std::optional<ResponseHeader> shed;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() - queue_head_ >= options_.queue_capacity) {
      ResponseHeader response;
      response.id = pending.request.header.id;
      response.status = StatusCode::kOverloaded;
      response.message =
          "admission queue full (capacity " +
          std::to_string(options_.queue_capacity) + ")";
      shed = std::move(response);
      if (pending.request.deliver) {
        deliver_shed = pending.request.deliver;
      } else if (live_) {
        deliver_shed = deliver_;
      }
    } else {
      queue_.push_back(std::move(pending));
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.submitted;
        ++stats_.admitted;
        stats_.queue_depth = queue_.size() - queue_head_;
        stats_.queue_high_water =
            std::max(stats_.queue_high_water, stats_.queue_depth);
      }
      if (live_) work_cv_.notify_one();
      return std::nullopt;
    }
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.submitted;
    ++stats_.shed;
  }
  // Shed responses complete instantly; they still flow through the same
  // accounting (and live delivery) as executed ones -- no silent drops.
  record_response(*shed, 0.0);
  if (deliver_shed) deliver_shed(*shed);
  return shed;
}

std::vector<ResponseHeader> Service::drain() {
  std::vector<Pending> batch;
  std::size_t head = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (live_) {
      throw ConfigError("Service::drain() must not race live-mode workers");
    }
    batch.swap(queue_);  // O(1): the ping path is throughput-gated
    head = queue_head_;
    queue_head_ = 0;
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.queue_depth = 0;
  }
  // A dead prefix only exists if live mode ran earlier on this service.
  if (head > 0) {
    batch.erase(batch.begin(),
                batch.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return run_batch(batch);
}

void Service::start(Deliver deliver) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (live_) throw ConfigError("Service::start() called twice");
  deliver_ = std::move(deliver);
  live_ = true;
  stopping_ = false;
  supervisor_stop_ = false;
  int workers = options_.workers > 0
                    ? options_.workers
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (workers <= 0) workers = 1;
  workers_ = std::vector<WorkerSlot>(static_cast<std::size_t>(workers));
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    workers_[slot].generation = 1;
    workers_[slot].thread =
        std::thread([this, slot] { worker_main(slot, 1); });
  }
  supervisor_ = std::thread([this] { supervisor_main(); });
}

void Service::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!live_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  // Join workers one at a time, taking each handle under the lock: with
  // stopping_ set the supervisor no longer retires or replaces threads, so
  // the remaining handles are stable -- but it keeps answering overrun
  // requests, so the drain stays live even if a worker is stalled.
  while (true) {
    std::thread victim;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (WorkerSlot& slot : workers_) {
        if (slot.thread.joinable()) {
          victim = std::move(slot.thread);
          break;
        }
      }
      if (!victim.joinable() && !retired_.empty()) {
        victim = std::move(retired_.back());
        retired_.pop_back();
      }
    }
    if (!victim.joinable()) break;
    // A retired (hung) worker finishes once its stall ends; its result is
    // discarded by the answered flag, so waiting here is safe.
    victim.join();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  supervisor_.join();
  std::unique_lock<std::mutex> lock(mutex_);
  workers_.clear();
  live_ = false;
  deliver_ = nullptr;
}

bool Service::answer(Inflight& work, const ResponseHeader& response,
                     double latency_ms) {
  // Exactly-once gate: worker and supervisor both call this; the flag
  // picks one winner no matter how the race interleaves.
  if (work.answered.exchange(true, std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.late_results_discarded;
    return false;
  }
  record_response(response, latency_ms);
  // deliver_ is written only by start()/stop(), strictly before workers
  // exist / after they are joined, so the unlocked read is safe.
  const Deliver& sink =
      work.pending.request.deliver ? work.pending.request.deliver : deliver_;
  if (sink) sink(response);
  return true;
}

void Service::worker_main(std::size_t slot, std::uint64_t generation) {
  while (true) {
    std::shared_ptr<Inflight> work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || queue_head_ != queue_.size() ||
               workers_[slot].generation != generation;
      });
      if (workers_[slot].generation != generation) return;  // replaced
      if (queue_head_ == queue_.size()) {
        if (stopping_) return;
        continue;
      }
      work = std::make_shared<Inflight>();
      work->pending = std::move(queue_[queue_head_++]);
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      } else if (queue_head_ >= 64 && queue_head_ * 2 >= queue_.size()) {
        // Compact once the dead prefix dominates; amortized O(1) per pop.
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
        queue_head_ = 0;
      }
      work->deadline_at =
          work->pending.budget_seconds > 0
              ? work->pending.admitted_at + work->pending.budget_seconds
              : 0;
      workers_[slot].current = work;
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.queue_depth = queue_.size() - queue_head_;
    }
    const double started = now_seconds();
    executing_.fetch_add(1, std::memory_order_relaxed);
    const ResponseHeader response = execute(work->pending);
    executing_.fetch_sub(1, std::memory_order_relaxed);
    answer(*work, response, (now_seconds() - started) * 1e3);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (workers_[slot].generation != generation) {
        // The supervisor declared this worker hung while it was executing
        // and already replaced it: isolate -- take no further work.
        return;
      }
      workers_[slot].current.reset();
    }
  }
}

void Service::supervisor_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!supervisor_stop_) {
    supervisor_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.supervisor_poll_seconds),
        [&] { return supervisor_stop_; });
    if (supervisor_stop_) return;
    const double now = now_seconds();
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      const std::shared_ptr<Inflight> work = workers_[slot].current;
      if (!work || work->deadline_at <= 0) continue;
      if (now < work->deadline_at + options_.supervisor_grace_seconds) {
        continue;
      }
      if (work->answered.load(std::memory_order_acquire)) continue;
      // The request overran its deadline inside a worker (a hung
      // simulation, a chaos stall): answer kTimeout on the worker's
      // behalf so the client is never left waiting.
      ResponseHeader response;
      response.id = work->pending.request.header.id;
      response.status = StatusCode::kTimeout;
      response.message =
          "deadline overrun inside a worker; answered by the supervisor";
      lock.unlock();  // delivery can block on a slow client
      const bool won =
          answer(*work, response, (now - work->pending.admitted_at) * 1e3);
      lock.lock();
      if (!won) continue;  // the worker finished inside the race window
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.hung_detected;
      }
      // Isolate and replace the hung worker so pool capacity self-heals.
      // Skipped during shutdown (the stalled thread drains on its own) and
      // when the worker recovered while the lock was dropped.
      if (stopping_ || workers_[slot].current != work) continue;
      ++workers_[slot].generation;
      retired_.push_back(std::move(workers_[slot].thread));
      workers_[slot].current.reset();
      const std::uint64_t generation = workers_[slot].generation;
      workers_[slot].thread = std::thread(
          [this, slot, generation] { worker_main(slot, generation); });
      work_cv_.notify_all();
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.workers_replaced;
    }
  }
}

std::vector<ResponseHeader> Service::run_batch(std::vector<Pending>& batch) {
  // Batch mode leaves executing_ alone: only live-mode workers maintain
  // the inflight gauge, and the ping path is throughput-gated.
  std::vector<ResponseHeader> responses(batch.size());
  if (batch.empty()) return responses;
  pool_.parallel_for(batch.size(), [&](std::size_t index) {
    const double started = now_seconds();
    responses[index] = execute(batch[index]);
    record_response(responses[index], (now_seconds() - started) * 1e3);
  });
  return responses;
}

ResponseHeader Service::execute(const Pending& pending) {
  ResponseHeader response;
  response.id = pending.request.header.id;
  if (pending.request.cancel &&
      pending.request.cancel->load(std::memory_order_relaxed)) {
    response.status = StatusCode::kCanceled;
    response.message = "request canceled before execution";
    return response;
  }
  if (pending.budget_seconds > 0 &&
      now_seconds() - pending.admitted_at >= pending.budget_seconds) {
    response.status = StatusCode::kTimeout;
    response.message = "deadline expired while queued";
    return response;
  }
  // Chaos worker stall: simulates a handler that hangs mid-request.  In
  // live mode a stall past the deadline is what trips the supervisor.
  if (options_.chaos && options_.chaos->fire(ChaosSite::kWorkerStall)) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.chaos->worker_stall_ms()));
  }
  if (pending.request.header.op == RequestOp::kPing) {
    response.status = StatusCode::kOk;
    return response;
  }
  if (pending.request.header.op == RequestOp::kConstruct) {
    return construct(pending);
  }
  return predict(pending);
}

std::optional<skeleton::Skeleton> Service::resolve_skeleton(
    const Pending& pending, ResponseHeader& response) {
  const RequestHeader& header = pending.request.header;

  // Hot-skeleton reuse: the request names a previously retained skeleton
  // by content hash instead of re-sending the container.  A miss is an
  // explicit, terminal answer -- the client re-uploads, it does not retry.
  if (header.skeleton_hash != 0) {
    std::optional<std::string> canonical = store_.get(header.skeleton_hash);
    if (!canonical) {
      response.status = StatusCode::kNotFound;
      response.message = "skeleton " +
                         archive::fingerprint_hex(header.skeleton_hash) +
                         " is not resident (evicted or never uploaded); "
                         "re-upload the container";
      return std::nullopt;
    }
    // The store holds bytes our own encoder produced; failing to decode
    // them is a server bug, not a client one.
    archive::Result<archive::Frame> frame = archive::read_frame(*canonical);
    if (frame.ok() && frame.value().kind == archive::PayloadKind::kSkeleton) {
      archive::Result<skeleton::Skeleton> decoded = archive::decode_skeleton(
          frame.value().payload, frame.value().payload_version);
      if (decoded.ok()) {
        response.skeleton_hash = header.skeleton_hash;
        return decoded.take();
      }
    }
    response.status = StatusCode::kInternal;
    response.message = "retained skeleton bytes failed to decode";
    return std::nullopt;
  }

  // Parse the uploaded container.  A strict parse failure is recoverable:
  // in salvage mode (or strict mode with the salvage_fallback degradation
  // enabled) the guard layer recovers the usable prefix and the response
  // is marked degraded instead of failing the request.
  skeleton::Skeleton skeleton;
  archive::Result<archive::Frame> frame =
      archive::read_frame(header.archive_bytes);
  std::string parse_failure;
  if (frame.ok()) {
    if (frame.value().kind != archive::PayloadKind::kSkeleton) {
      response.message =
          std::string("uploaded archive holds a ") +
          archive::payload_kind_name(frame.value().kind) +
          ", wanted a skeleton";
      return std::nullopt;
    }
    archive::Result<skeleton::Skeleton> decoded = archive::decode_skeleton(
        frame.value().payload, frame.value().payload_version);
    if (decoded.ok()) {
      skeleton = decoded.take();
    } else {
      parse_failure = decoded.error().render();
    }
  } else {
    parse_failure = frame.error().render();
  }
  if (!parse_failure.empty()) {
    const bool try_salvage =
        header.validate == ValidateMode::kSalvage ||
        (header.validate == ValidateMode::kStrict && options_.salvage_fallback);
    if (!try_salvage) {
      response.message = "upload rejected: " + parse_failure;
      return std::nullopt;
    }
    guard::SalvageReport report;
    std::optional<skeleton::Skeleton> recovered =
        guard::salvage_skeleton_bytes(header.archive_bytes, report);
    if (!recovered) {
      response.message = "upload rejected: " + parse_failure +
                         " (salvage recovered nothing)";
      return std::nullopt;
    }
    skeleton = std::move(*recovered);
    response.degraded = true;
    response.message = "salvaged upload: kept " +
                       std::to_string(report.ranks_kept) + " of " +
                       std::to_string(report.ranks_expected) + " rank(s)";
  }

  // Retain the canonical re-encoding under its content hash so follow-up
  // predicts can name it by hash; the response advertises the hash either
  // way.  Content addressing makes concurrent identical uploads converge
  // on one entry.
  response.skeleton_hash = store_.put(canonical_skeleton_bytes(skeleton));
  return skeleton;
}

ResponseHeader Service::predict(const Pending& pending) {
  const RequestHeader& header = pending.request.header;
  ResponseHeader response;
  response.id = header.id;
  response.status = StatusCode::kBadInput;

  std::optional<skeleton::Skeleton> resolved =
      resolve_skeleton(pending, response);
  if (!resolved) return response;
  skeleton::Skeleton skeleton = std::move(*resolved);

  // Semantic validation.  Strict uploads are refused on errors; salvage
  // mode (and a strict upload already degraded by the salvage fallback)
  // proceeds anyway -- the replay guards (run_time_limit / DeadlockError)
  // turn genuinely broken skeletons into kBadInput rather than a hang.
  if (header.validate == ValidateMode::kStrict && !response.degraded) {
    const guard::ValidationReport report = guard::validate_skeleton(skeleton);
    if (!report.ok()) {
      response.message = report.render();
      return response;
    }
  }

  std::vector<double> values;
  values.reserve(header.repetitions);
  try {
    const scenario::Scenario& scenario = scenario::find_scenario(header.scenario);
    for (std::uint32_t rep = 0; rep < header.repetitions; ++rep) {
      if (pending.request.cancel &&
          pending.request.cancel->load(std::memory_order_relaxed)) {
        response.status = StatusCode::kCanceled;
        response.message = "request canceled during execution";
        return response;
      }
      core::FrameworkOptions options = options_.framework;
      // Follow the upload, not the configured world size: a salvaged
      // skeleton may have fewer ranks and must still replay.
      options.ranks = skeleton.rank_count();
      if (pending.budget_seconds > 0) {
        const double remaining =
            pending.budget_seconds - (now_seconds() - pending.admitted_at);
        if (remaining <= 0) {
          // Partial repetitions are discarded: kTimeout never carries a
          // partial result.
          response.status = StatusCode::kTimeout;
          response.message = "deadline exceeded during execution";
          return response;
        }
        options.wall_deadline_seconds =
            options.wall_deadline_seconds > 0
                ? std::min(options.wall_deadline_seconds, remaining)
                : remaining;
      }
      const core::SkeletonFramework framework(options);
      values.push_back(
          framework.run_skeleton(skeleton, scenario, header.seed + rep));
    }
  } catch (const TimeoutError&) {
    response.status = StatusCode::kTimeout;
    response.message = "deadline exceeded during execution";
    return response;
  } catch (const DeadlockError& e) {
    response.message = std::string("skeleton deadlocked at replay: ") + e.what();
    return response;
  } catch (const guard::ValidationError& e) {
    response.message = e.what();
    return response;
  } catch (const FormatError& e) {
    response.message = e.what();
    return response;
  } catch (const ConfigError& e) {
    response.message = e.what();
    return response;
  } catch (const std::exception& e) {
    response.status = StatusCode::kInternal;
    response.message = std::string("internal error: ") + e.what();
    return response;
  }

  response.status = StatusCode::kOk;
  response.values = std::move(values);
  return response;
}

ResponseHeader Service::construct(const Pending& pending) {
  const RequestHeader& header = pending.request.header;
  ResponseHeader response;
  response.id = header.id;
  response.status = StatusCode::kBadInput;

  // The upload is a folded execution trace (psk trace's output container),
  // not a skeleton.  There is no salvage path for traces: a torn trace
  // would silently construct a skeleton of a different application prefix,
  // which is worse than an explicit rejection.
  archive::Result<archive::Frame> frame =
      archive::read_frame(header.archive_bytes);
  if (!frame.ok()) {
    response.message = "trace upload rejected: " + frame.error().render();
    return response;
  }
  if (frame.value().kind != archive::PayloadKind::kTrace) {
    response.message = std::string("uploaded archive holds a ") +
                       archive::payload_kind_name(frame.value().kind) +
                       ", wanted a trace";
    return response;
  }
  archive::Result<trace::Trace> decoded = archive::decode_trace(
      frame.value().payload, frame.value().payload_version);
  if (!decoded.ok()) {
    response.message = "trace upload rejected: " + decoded.error().render();
    return response;
  }

  try {
    const core::SkeletonFramework framework(options_.framework);
    // Full server-side construction: cluster + loop-compress at Q = K /
    // divisor, scale by K, and retry compression thresholds until the
    // scaled skeleton validates across ranks.
    const skeleton::Skeleton skeleton =
        framework.make_consistent_skeleton(decoded.value(), header.target_k);
    std::string canonical = canonical_skeleton_bytes(skeleton);
    response.skeleton_hash = store_.put(canonical);
    response.skeleton_bytes = std::move(canonical);
    response.status = StatusCode::kOk;
  } catch (const guard::ValidationError& e) {
    response.message = e.what();
  } catch (const FormatError& e) {
    response.message = e.what();
  } catch (const ConfigError& e) {
    response.message = e.what();
  } catch (const std::exception& e) {
    response.status = StatusCode::kInternal;
    response.message = std::string("internal error: ") + e.what();
  }
  return response;
}

void Service::record_response(const ResponseHeader& response,
                              double latency_ms) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.completed;
  ++stats_.by_status[static_cast<int>(response.status)];
  if (response.degraded) ++stats_.degraded;
  latencies_ms_[static_cast<int>(response.status)].add(latency_ms);
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

HealthInfo Service::health() const {
  HealthInfo health;
  health.uptime_seconds = std::max(0.0, now_seconds() - constructed_at_);
  health.queue_capacity =
      static_cast<std::uint32_t>(options_.queue_capacity);
  health.inflight = executing_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health.queue_depth =
        static_cast<std::uint32_t>(queue_.size() - queue_head_);
    health.workers = static_cast<std::uint32_t>(workers_.size());
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  health.completed = stats_.completed;
  health.shed = stats_.shed;
  health.hung_detected = stats_.hung_detected;
  health.workers_replaced = stats_.workers_replaced;
  return health;
}

void Service::publish(obs::MetricsRegistry& metrics) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  metrics.counter("svc.submitted").add(static_cast<double>(stats_.submitted));
  metrics.counter("svc.admitted").add(static_cast<double>(stats_.admitted));
  metrics.counter("svc.shed").add(static_cast<double>(stats_.shed));
  metrics.counter("svc.completed").add(static_cast<double>(stats_.completed));
  metrics.counter("svc.degraded").add(static_cast<double>(stats_.degraded));
  metrics.counter("svc.queue_depth.now")
      .add(static_cast<double>(stats_.queue_depth));
  metrics.counter("svc.queue_depth.high_water")
      .add(static_cast<double>(stats_.queue_high_water));
  metrics.counter("svc.supervisor.hung_detected")
      .add(static_cast<double>(stats_.hung_detected));
  metrics.counter("svc.supervisor.workers_replaced")
      .add(static_cast<double>(stats_.workers_replaced));
  metrics.counter("svc.supervisor.late_results_discarded")
      .add(static_cast<double>(stats_.late_results_discarded));
  store_.publish(metrics);
  if (options_.chaos) {
    const ChaosStats chaos = options_.chaos->stats();
    for (std::size_t site = 0; site < kChaosSiteCount; ++site) {
      const std::string prefix =
          std::string("svc.chaos.") +
          chaos_site_name(static_cast<ChaosSite>(site));
      metrics.counter(prefix + ".consulted")
          .add(static_cast<double>(chaos.consulted[site]));
      metrics.counter(prefix + ".injected")
          .add(static_cast<double>(chaos.injected[site]));
    }
  }
  for (int code = 0; code <= static_cast<int>(kLastStatusCode); ++code) {
    const char* name = status_name(static_cast<StatusCode>(code));
    metrics.counter(std::string("svc.status.") + name)
        .add(static_cast<double>(stats_.by_status[code]));
    const std::vector<double>& samples =
        latencies_ms_[static_cast<std::size_t>(code)].samples();
    if (samples.empty()) continue;
    metrics.counter(std::string("svc.latency_ms.") + name + ".p50")
        .add(percentile(samples, 0.50));
    metrics.counter(std::string("svc.latency_ms.") + name + ".p99")
        .add(percentile(samples, 0.99));
    metrics.counter(std::string("svc.latency_ms.") + name + ".p999")
        .add(percentile(samples, 0.999));
  }
}

}  // namespace psk::svc
