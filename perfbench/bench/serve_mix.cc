// serve_mix: an in-process pskd -- svc::Service in live mode with a fixed
// worker count behind svc::SocketServer on a unix socket -- driven over two
// connections.
//
// Request mix (seeded): mostly predict-by-hash over a few retained class-S
// skeletons (store reads), some predicts that re-upload the container, and
// some server-side constructions from an uploaded trace (archive decode,
// store writes, signature compression on the server).  Half of the
// predicts name a (scenario, seed) pair primed during set-up, so about half
// of them hit the result cache.
//
// Phases: a closed loop (two connections, a fixed window of outstanding
// requests each) measures capacity; then an open loop sends at a fixed
// absolute rate on an absolute schedule, timing each request from when it
// was due.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "cache/cache.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace psk;

/// Open-loop send rate in requests per second: a fixed absolute rate, about
/// half the closed-loop capacity of a 4-core 2020s x86 server, so runs stay
/// comparable across commits that change capacity.
constexpr double kOpenRate = 800.0;
/// Closed-loop requests outstanding per connection.
constexpr int kWindow = 6;
/// Generator lateness (p99, ms) beyond which a run is invalid.
constexpr double kMaxLateMs = 25.0;
/// Every n-th kOk predict is re-computed locally and compared.
constexpr std::uint64_t kVerifyEvery = 16;

const char* const kApps[] = {"CG", "LU", "MG"};
constexpr double kSkeletonK = 10.0;
const double kConstructK[] = {8.0, 16.0};
const char* const kScenarios[] = {"dedicated",    "cpu-one-node",
                                  "cpu-all-nodes", "net-one-link",
                                  "net-all-links", "cpu-and-net"};
constexpr std::size_t kScenarioCount = 6;
constexpr std::uint64_t kHotPerSkeleton = 4;

enum class Op { kPredictHash = 0, kPredictUpload = 1, kConstruct = 2 };
constexpr const char* kOpNames[] = {"predict_hash", "predict_upload",
                                    "construct"};

std::string skeleton_container(const skeleton::Skeleton& skeleton) {
  std::string payload;
  archive::encode(payload, skeleton);
  std::string out;
  archive::write_frame(out, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return out;
}

std::string trace_container(const trace::Trace& trace) {
  std::string payload;
  archive::encode(payload, trace);
  std::string out;
  archive::write_frame(out, archive::PayloadKind::kTrace,
                       archive::kTraceVersion, payload);
  return out;
}

/// Everything the clients upload, and the answers they must get back.
struct Inputs {
  std::vector<skeleton::Skeleton> skeletons;
  std::vector<std::string> skeleton_bytes;
  std::vector<std::uint64_t> skeleton_hashes;
  std::vector<std::string> trace_bytes;
  /// expected_construct[app][k]: hash of the locally built skeleton.
  std::vector<std::vector<std::uint64_t>> expected_construct;
};

Inputs build_inputs(const core::FrameworkOptions& options) {
  const core::SkeletonFramework framework(options);
  Inputs inputs;
  for (const char* app : kApps) {
    const trace::Trace trace = framework.record(
        apps::find_benchmark(app).make(apps::NasClass::kS), app);
    inputs.skeletons.push_back(
        framework.make_consistent_skeleton(trace, kSkeletonK));
    inputs.skeleton_bytes.push_back(
        skeleton_container(inputs.skeletons.back()));
    inputs.skeleton_hashes.push_back(
        archive::fingerprint64(inputs.skeleton_bytes.back()));
    inputs.trace_bytes.push_back(trace_container(trace));
    std::vector<std::uint64_t> expected;
    for (const double k : kConstructK) {
      expected.push_back(archive::fingerprint64(skeleton_container(
          framework.make_consistent_skeleton(trace, k))));
    }
    inputs.expected_construct.push_back(std::move(expected));
  }
  return inputs;
}

/// One planned request.
struct Plan {
  Op op = Op::kPredictHash;
  std::size_t app = 0;
  std::size_t scenario = 0;
  std::uint64_t seed = 0;
  std::size_t construct_k = 0;
};

/// The hot (scenario, seed) pairs of a skeleton, primed during set-up.
Plan hot_plan(std::size_t app, std::uint64_t slot, std::uint64_t seed) {
  Plan plan;
  plan.app = app;
  plan.scenario = (mix64(seed + app * 131 + slot) % kScenarioCount);
  plan.seed = 100 + slot;
  return plan;
}

/// Seeded request stream: 80% predict-by-hash, 12% predict with upload,
/// 8% construct; 40% of the predicts hot, the rest on a never-used seed.
/// With 40% rather than 50% hot, the median request falls inside the
/// cache-miss latency cluster instead of on the edge between hits and
/// misses, where it would jump with every seed.
class PlanStream {
 public:
  PlanStream(std::uint64_t seed, std::uint64_t stream)
      : seed_(seed), state_(mix64(seed * 1000003 + stream)),
        next_cold_seed_((stream + 1) << 32) {}

  Plan next() {
    const std::uint64_t r = draw();
    Plan plan;
    plan.app = draw() % std::size(kApps);
    const std::uint64_t kind = r % 100;
    if (kind < 8) {
      plan.op = Op::kConstruct;
      plan.construct_k = draw() % std::size(kConstructK);
      return plan;
    }
    const Op op = kind < 20 ? Op::kPredictUpload : Op::kPredictHash;
    if (draw() % 5 < 2) {
      plan = hot_plan(plan.app, draw() % kHotPerSkeleton, seed_);
    } else {
      plan.scenario = draw() % kScenarioCount;
      plan.seed = next_cold_seed_++;
    }
    plan.op = op;
    return plan;
  }

 private:
  std::uint64_t draw() { return mix64(state_++); }

  std::uint64_t seed_;
  std::uint64_t state_;
  std::uint64_t next_cold_seed_;
};

svc::RequestHeader make_request(const Plan& plan, std::uint32_t id,
                                const Inputs& inputs) {
  svc::RequestHeader header;
  header.id = id;
  header.deadline_seconds = 30.0;
  header.repetitions = 1;
  switch (plan.op) {
    case Op::kConstruct:
      header.op = svc::RequestOp::kConstruct;
      header.target_k = kConstructK[plan.construct_k];
      header.archive_bytes = inputs.trace_bytes[plan.app];
      break;
    case Op::kPredictUpload:
      header.op = svc::RequestOp::kPredict;
      header.archive_bytes = inputs.skeleton_bytes[plan.app];
      break;
    case Op::kPredictHash:
      header.op = svc::RequestOp::kPredict;
      header.skeleton_hash = inputs.skeleton_hashes[plan.app];
      break;
  }
  header.scenario = kScenarios[plan.scenario];
  header.seed = plan.seed;
  return header;
}

/// A predict answer kept for local re-computation.
struct Sample {
  Plan plan;
  double value = 0;
};

/// Per-connection record of what was sent and what came back, indexed by
/// request id - base.
struct Ledger {
  std::uint32_t base = 0;
  std::vector<Plan> plans;
  std::vector<double> due;   // seconds; when the request was due
  std::vector<double> sent;  // seconds; when it went out
  std::vector<double> done;  // seconds; when its answer arrived
  std::vector<std::uint8_t> answers;
  std::vector<Sample> samples;
  std::vector<svc::HealthInfo> health;
  std::uint64_t ok_predicts = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const Plan& plan, double due_at) {
    plans.push_back(plan);
    due.push_back(due_at);
    sent.push_back(0);
    done.push_back(0);
    answers.push_back(0);
  }
  void problem(std::string what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
  std::uint64_t unanswered() const {
    return static_cast<std::uint64_t>(
        std::count_if(answers.begin(), answers.end(),
                      [](std::uint8_t count) { return count != 1; }));
  }
  /// Moves failures and samples into the run's outcome.
  void settle_into(Outcome& out, std::vector<Sample>& all_samples,
                   const char* phase) {
    out.attempted += plans.size();
    if (const std::uint64_t missing = unanswered(); missing > 0) {
      problem(std::to_string(missing) + " " + phase +
              " request(s) not answered exactly once");
    }
    for (const std::string& what : problems) {
      out.notes.push_back("CHECK FAILED: " + what);
    }
    if (failed > 0) {
      out.correct = false;
      out.failed += failed;
    }
    all_samples.insert(all_samples.end(), samples.begin(), samples.end());
  }
};

/// Checks one response against its plan; records timing and samples.
void settle(Ledger& ledger, const svc::ResponseHeader& r, const Inputs& inputs,
            double now) {
  const std::size_t index = r.id - ledger.base;
  if (r.id < ledger.base || index >= ledger.plans.size()) {
    ledger.problem("answer for unknown request id " + std::to_string(r.id));
    return;
  }
  if (++ledger.answers[index] != 1) {
    ledger.problem("request " + std::to_string(r.id) + " answered twice");
    return;
  }
  ledger.done[index] = now;
  const Plan& plan = ledger.plans[index];
  if (r.status != svc::StatusCode::kOk) {
    ledger.problem(std::string(kOpNames[static_cast<int>(plan.op)]) +
                   " answered " + svc::status_name(r.status) + ": " +
                   r.message);
    return;
  }
  if (plan.op == Op::kConstruct) {
    const std::uint64_t expected =
        inputs.expected_construct[plan.app][plan.construct_k];
    if (r.skeleton_hash != expected ||
        archive::fingerprint64(r.skeleton_bytes) != expected) {
      ledger.problem("construct skeleton_hash differs from the local "
                     "make_skeleton fingerprint");
    }
    return;
  }
  if (r.skeleton_hash != inputs.skeleton_hashes[plan.app] ||
      r.values.size() != 1) {
    ledger.problem("predict answered for the wrong skeleton");
    return;
  }
  if (ledger.ok_predicts++ % kVerifyEvery == 0) {
    ledger.samples.push_back(Sample{plan, r.values[0]});
  }
}

/// The service, its listener and the accept thread.
class Server {
 public:
  Server(const svc::ServiceOptions& options, const std::string& path)
      : service_(options) {
    service_.start([](const svc::ResponseHeader&) {});
    address_.kind = svc::ListenAddress::Kind::kUnix;
    address_.path = path;
    svc::SessionOptions session;
    session.max_inflight = 1024;
    server_ = std::make_unique<svc::SocketServer>(address_, service_, session);
    serving_ = std::thread([this] { server_->serve(); });
  }
  ~Server() {
    server_->stop();
    serving_.join();
    service_.stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const svc::ListenAddress& address() const { return address_; }
  svc::Service& service() { return service_; }

 private:
  svc::Service service_;
  svc::ListenAddress address_;
  std::unique_ptr<svc::SocketServer> server_;
  std::thread serving_;
};

/// A client connection driven by poll(): one thread can keep several
/// connections busy and hold a send schedule while answers arrive, so the
/// load generator costs one thread in both phases.
class Connection {
 public:
  explicit Connection(const svc::ListenAddress& address) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&sun), sizeof sun) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() to " + address.path + " failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void send(svc::FrameKind kind, std::string_view body) {
    std::string bytes;
    if (!svc::append_frame(bytes, kind, body).ok()) {
      throw std::runtime_error("request frame too large");
    }
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t wrote = ::send(fd_, bytes.data() + done,
                                   bytes.size() - done, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) throw std::runtime_error("send() failed");
      done += static_cast<std::size_t>(wrote);
    }
  }
  void send_request(const svc::RequestHeader& request) {
    std::string body;
    svc::encode_request(body, request);
    send(svc::FrameKind::kRequest, body);
  }

  /// One read of what is available (call when poll() reports the socket
  /// readable); appends every complete frame.  False on EOF or a bad stream.
  bool receive(std::vector<svc::Frame>& frames) {
    char chunk[1 << 16];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) return true;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    while (true) {
      svc::Frame frame;
      std::size_t consumed = 0;
      archive::Error error;
      switch (svc::try_parse_frame(buffer_, svc::kMaxFrameBytes, frame,
                                   consumed, error)) {
        case svc::ParseProgress::kFrame:
          buffer_.erase(0, consumed);
          frames.push_back(std::move(frame));
          break;
        case svc::ParseProgress::kNeedMore:
          return true;
        case svc::ParseProgress::kBad:
          return false;
      }
    }
  }

  /// Half-close.  The server cancels whatever is still in flight on this
  /// connection, so call it only once every answer is in.
  void shutdown_send() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Waits until a connection is readable or `until` (steady seconds) passes.
/// Returns the readable mask, one bit per connection.
unsigned wait_readable(const std::vector<Connection*>& connections,
                       double until) {
  std::vector<pollfd> fds;
  for (const Connection* connection : connections) {
    fds.push_back(pollfd{connection->fd(), POLLIN, 0});
  }
  const double wait = std::max(0.0, until - now_seconds());
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(wait);
  timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return 0;
  unsigned mask = 0;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents != 0) mask |= 1u << i;
  }
  return mask;
}

/// Reads one batch from `connection` and dispatches it: health answers to
/// the ledger, responses through settle().  Returns the number of responses
/// and health answers seen, or nullopt when the connection died.
std::optional<std::pair<std::size_t, std::size_t>> pump(
    Connection& connection, Ledger& ledger, const Inputs& inputs) {
  std::vector<svc::Frame> frames;
  if (!connection.receive(frames)) return std::nullopt;
  const double now = now_seconds();
  std::size_t responses = 0;
  std::size_t health = 0;
  for (const svc::Frame& frame : frames) {
    if (frame.kind == svc::FrameKind::kHealth) {
      auto decoded = svc::decode_health(frame.body);
      if (decoded.ok()) ledger.health.push_back(decoded.take());
      ++health;
      continue;
    }
    auto decoded = svc::decode_response(frame.body);
    if (!decoded.ok()) return std::nullopt;
    settle(ledger, decoded.value(), inputs, now);
    ++responses;
  }
  return std::make_pair(responses, health);
}

struct ClosedResult {
  double wall_s = 0;
  /// Completion rate over fixed windows of the loop (kRateQuantile of the
  /// windows), so a brief disturbance of the machine moves one window, not
  /// the result.
  double rate_per_s = 0;
  std::vector<svc::HealthInfo> health;
};

/// Window length for ClosedResult::rate_per_s.
constexpr double kRateWindow = 0.25;
/// Window length for OpenResult::windowed_p50_ms.
constexpr double kP50Window = 0.5;

/// Closed loop: two connections, `kWindow` requests outstanding on each,
/// until `seconds` pass; then drain.  With `probe`, a kHealth probe follows
/// every 16th answer.
ClosedResult closed_loop(Server& server, const Inputs& inputs,
                         std::uint64_t seed, std::uint64_t stream_base,
                         double seconds, bool probe, Outcome& out,
                         std::vector<Sample>& samples) {
  Connection a(server.address());
  Connection b(server.address());
  std::vector<Connection*> connections = {&a, &b};
  Ledger ledgers[2];
  std::vector<PlanStream> streams;
  for (std::size_t c = 0; c < 2; ++c) {
    ledgers[c].base = static_cast<std::uint32_t>((stream_base + c) << 24);
    streams.emplace_back(seed, stream_base + c);
  }
  std::size_t outstanding[2] = {0, 0};
  std::size_t probes[2] = {0, 0};
  std::size_t answered[2] = {0, 0};
  const auto send_next = [&](std::size_t c) {
    Ledger& ledger = ledgers[c];
    const std::uint32_t id =
        ledger.base + static_cast<std::uint32_t>(ledger.plans.size());
    ledger.add(streams[c].next(), now_seconds());
    connections[c]->send_request(make_request(ledger.plans.back(), id, inputs));
    ++outstanding[c];
  };

  const double start = now_seconds();
  const double until = start + seconds;
  for (std::size_t c = 0; c < 2; ++c) {
    for (int i = 0; i < kWindow; ++i) send_next(c);
  }
  while (outstanding[0] + outstanding[1] + probes[0] + probes[1] > 0) {
    const unsigned ready = wait_readable(connections, now_seconds() + 1.0);
    for (std::size_t c = 0; c < 2; ++c) {
      if ((ready & (1u << c)) == 0) continue;
      const auto seen = pump(*connections[c], ledgers[c], inputs);
      if (!seen) {
        ledgers[c].problem("closed loop: connection ended with requests "
                           "outstanding");
        outstanding[c] = probes[c] = 0;
        continue;
      }
      outstanding[c] -= seen->first;
      probes[c] -= seen->second;
      for (std::size_t i = 0; i < seen->first; ++i) {
        if (probe && ++answered[c] % 16 == 0) {
          connections[c]->send(svc::FrameKind::kHealth, {});
          ++probes[c];
        }
        if (now_seconds() < until) send_next(c);
      }
    }
  }
  a.shutdown_send();
  b.shutdown_send();

  ClosedResult result;
  result.wall_s = now_seconds() - start;
  std::vector<double> per_window(
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kRateWindow)),
      0);
  for (Ledger& ledger : ledgers) {
    for (std::size_t i = 0; i < ledger.plans.size(); ++i) {
      const double offset = ledger.done[i] - start;
      if (ledger.answers[i] == 1 && offset >= 0 &&
          offset < per_window.size() * kRateWindow) {
        per_window[static_cast<std::size_t>(offset / kRateWindow)] += 1;
      }
    }
    result.health.insert(result.health.end(), ledger.health.begin(),
                         ledger.health.end());
    ledger.settle_into(out, samples, "closed-loop");
  }
  result.rate_per_s = percentile(per_window, kRateQuantile) / kRateWindow;
  return result;
}

struct OpenResult {
  std::vector<double> latency_ms[3];
  std::vector<double> all_ms;
  /// Median over fixed windows (by due time) of each window's p50.
  double windowed_p50_ms = 0;
  std::vector<double> late_ms;
  std::vector<svc::HealthInfo> health;
  std::uint64_t sent = 0;
  std::uint64_t allocations = 0;
};

/// Open loop on one connection: requests go out on an absolute schedule
/// (request i at t0 + i / kOpenRate) whatever the answers do, and each is
/// timed from when it was due.  With `probe`, a kHealth probe is due every
/// 50 ms and heap allocations are counted.
OpenResult open_loop(Server& server, const Inputs& inputs, std::uint64_t seed,
                     double seconds, bool probe, Outcome& out,
                     std::vector<Sample>& samples) {
  const std::size_t total =
      std::max<std::size_t>(1, static_cast<std::size_t>(kOpenRate * seconds));
  constexpr double kProbeEvery = 0.05;
  const std::size_t probes_planned =
      probe ? static_cast<std::size_t>(seconds / kProbeEvery) : 0;
  Ledger ledger;
  ledger.base = 7u << 24;
  PlanStream stream(seed, 7);
  for (std::size_t i = 0; i < total; ++i) ledger.add(stream.next(), 0);

  Connection connection(server.address());
  std::vector<Connection*> connections = {&connection};
  std::unique_ptr<AllocWindow> window;
  if (probe) window = std::make_unique<AllocWindow>();
  const double t0 = now_seconds() + 0.01;
  for (std::size_t i = 0; i < total; ++i) {
    ledger.due[i] = t0 + static_cast<double>(i) / kOpenRate;
  }
  std::size_t next = 0;
  std::size_t probes_sent = 0;
  std::size_t answers = 0;
  std::size_t probes_seen = 0;
  while (answers < total || probes_seen < probes_planned) {
    const double now = now_seconds();
    while (probes_sent < probes_planned &&
           t0 + kProbeEvery * static_cast<double>(probes_sent) <= now) {
      connection.send(svc::FrameKind::kHealth, {});
      ++probes_sent;
    }
    while (next < total && ledger.due[next] <= now_seconds()) {
      ledger.sent[next] = now_seconds();
      connection.send_request(make_request(
          ledger.plans[next],
          ledger.base + static_cast<std::uint32_t>(next), inputs));
      ++next;
    }
    double wake = now_seconds() + 1.0;
    if (next < total) wake = std::min(wake, ledger.due[next]);
    if (probes_sent < probes_planned) {
      wake = std::min(wake,
                      t0 + kProbeEvery * static_cast<double>(probes_sent));
    }
    if (wait_readable(connections, wake) == 0) continue;
    const auto seen = pump(connection, ledger, inputs);
    if (!seen) {
      ledger.problem("open loop: connection ended early");
      break;
    }
    answers += seen->first;
    probes_seen += seen->second;
  }
  connection.shutdown_send();

  OpenResult result;
  result.sent = total;
  if (window) result.allocations = window->count();
  std::vector<std::vector<double>> windows(
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kP50Window)));
  for (std::size_t i = 0; i < total; ++i) {
    result.late_ms.push_back((ledger.sent[i] - ledger.due[i]) * 1e3);
    if (ledger.answers[i] != 1) continue;
    const double ms = (ledger.done[i] - ledger.due[i]) * 1e3;
    result.all_ms.push_back(ms);
    result.latency_ms[static_cast<int>(ledger.plans[i].op)].push_back(ms);
    const auto w = static_cast<std::size_t>((ledger.due[i] - t0) / kP50Window);
    windows[std::min(w, windows.size() - 1)].push_back(ms);
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& samples_ms : windows) {
    if (!samples_ms.empty()) window_p50.push_back(percentile(samples_ms, 50));
  }
  result.windowed_p50_ms = median(window_p50);
  result.health = ledger.health;
  ledger.settle_into(out, samples, "open-loop");
  return result;
}

/// A running server with its inputs uploaded and its caches primed.
struct Stage {
  Inputs inputs;
  std::unique_ptr<Server> server;
};

svc::ServiceOptions service_options(int workers) {
  svc::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = 1024;
  options.framework.result_cache = std::make_shared<cache::ResultCache>();
  return options;
}

/// Set-up: class-S traces and skeletons, expected construct hashes, the
/// service and listener, one upload per skeleton (store priming) and one
/// predict per hot (scenario, seed) pair (result-cache priming).
std::unique_ptr<Stage> set_up(const svc::ServiceOptions& options,
                              std::uint64_t seed, const std::string& path) {
  auto stage = std::make_unique<Stage>();
  stage->inputs = build_inputs(options.framework);
  stage->server = std::make_unique<Server>(options, path);
  svc::SocketClient client(stage->server->address());
  std::uint32_t id = 1;
  for (std::size_t app = 0; app < std::size(kApps); ++app) {
    Plan upload;
    upload.app = app;
    upload.op = Op::kPredictUpload;
    std::vector<Plan> plans = {upload};
    for (std::uint64_t slot = 0; slot < kHotPerSkeleton; ++slot) {
      plans.push_back(hot_plan(app, slot, seed));
    }
    for (const Plan& plan : plans) {
      client.send_request(make_request(plan, id++, stage->inputs));
      svc::ResponseHeader response;
      if (!client.read_response(response) ||
          response.status != svc::StatusCode::kOk ||
          response.skeleton_hash != stage->inputs.skeleton_hashes[app]) {
        throw std::runtime_error("serve_mix set-up: priming request failed");
      }
    }
  }
  client.shutdown_send();
  return stage;
}

/// Re-computes sampled predict answers with a local framework.
void verify_samples(const std::vector<Sample>& samples, const Inputs& inputs,
                    const core::FrameworkOptions& base, Outcome& out) {
  std::size_t mismatches = 0;
  for (const Sample& sample : samples) {
    core::FrameworkOptions options = base;
    options.result_cache = nullptr;
    const skeleton::Skeleton& skeleton = inputs.skeletons[sample.plan.app];
    options.ranks = skeleton.rank_count();
    const core::SkeletonFramework framework(options);
    const double local = framework.run_skeleton(
        skeleton, scenario::find_scenario(kScenarios[sample.plan.scenario]),
        sample.plan.seed);
    if (local != sample.value) ++mismatches;
  }
  if (mismatches > 0) {
    out.fail(std::to_string(mismatches) + " of " +
                 std::to_string(samples.size()) +
                 " sampled predict values differ from a local run_skeleton",
             mismatches);
  }
  out.notes.push_back("serve_mix: " + std::to_string(samples.size()) +
                      " sampled predict values re-computed locally");
}

double metric(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.counter(name).value();
}

/// Median decode time of the upload containers, in microseconds.
double decode_us(const Inputs& inputs) {
  std::vector<double> samples;
  for (int round = 0; round < 50; ++round) {
    for (const std::string& bytes : inputs.skeleton_bytes) {
      const double start = now_seconds();
      auto frame = archive::read_frame(bytes);
      const bool ok =
          frame.ok() &&
          archive::decode_skeleton(frame.value().payload,
                                   frame.value().payload_version)
              .ok();
      samples.push_back((now_seconds() - start) * 1e6);
      if (!ok) return -1;
    }
  }
  return median(samples);
}

}  // namespace

Outcome run_serve_mix(const RunOptions& options) {
  Outcome out;
  // One client thread drives both phases; the rest of the load budget
  // goes to service workers.
  const int workers = std::max(1, options.load_threads - 1);
  const svc::ServiceOptions service = service_options(workers);
  const std::string path =
      "perfbench_" + std::to_string(::getpid()) + ".sock";
  out.notes.push_back("serve_mix: workers=" + std::to_string(workers) +
                      ", 2 connections, open-loop rate " +
                      std::to_string(kOpenRate) + " req/s");

  std::vector<double> setups;
  std::unique_ptr<Stage> stage;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stage.reset();  // the previous set-up's server stops first
    const svc::ServiceOptions fresh = service_options(workers);
    const double start = now_seconds();
    stage = set_up(fresh, options.seed, path);
    setups.push_back(now_seconds() - start);
  }
  Server& server = *stage->server;
  const Inputs& inputs = stage->inputs;
  std::vector<Sample> samples;

  const double closed_s = 0.4 * options.seconds;
  const double open_s = 0.6 * options.seconds;
  std::optional<ClosedResult> baseline;
  if (options.trace) {
    baseline = closed_loop(server, inputs, options.seed, 1, closed_s / 2,
                           false, out, samples);
  }
  const ClosedResult closed = closed_loop(server, inputs, options.seed, 3,
                                          closed_s, options.trace, out,
                                          samples);
  const double capacity = closed.rate_per_s;
  const OpenResult open =
      open_loop(server, inputs, options.seed, open_s, options.trace, out,
                samples);

  const double late_p99 = percentile(open.late_ms, 99);
  if (late_p99 > kMaxLateMs) {
    out.fail("run invalid: the open-loop generator ran " +
                 std::to_string(late_p99) + " ms late at p99 (bound " +
                 std::to_string(kMaxLateMs) + " ms)",
             0);
  }
  verify_samples(samples, inputs, stage->server->service().options().framework,
                 out);

  const double open_p50 = percentile(open.all_ms, 50);
  const double tail = tail_percentile(open.all_ms.size());
  out.notes.push_back(
      "serve_mix: capacity " + std::to_string(capacity) +
      " req/s closed-loop; open loop " + std::to_string(open.sent) +
      " request(s), p50 " + std::to_string(open_p50) + " ms (windowed " +
      std::to_string(open.windowed_p50_ms) + " ms), p" +
      std::to_string(tail) + " " +
      std::to_string(percentile(open.all_ms, tail)) +
      " ms; generator late p99 " + std::to_string(late_p99) + " ms");

  if (!options.trace) {
    out.metrics["setup_s"] = median(setups);
    out.metrics["wall_s"] = open.windowed_p50_ms / 1e3;
    out.metrics["ops_per_s"] = capacity;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& m = out.metrics;
  for (int op = 0; op < 3; ++op) {
    const std::vector<double>& samples_ms = open.latency_ms[op];
    m[std::string("svc.client_p50_ms.") + kOpNames[op]] =
        percentile(samples_ms, 50);
    m[std::string("svc.client_p99_ms.") + kOpNames[op]] =
        percentile(samples_ms, tail_percentile(samples_ms.size()));
  }
  m["svc.open_p50_ms"] = open_p50;
  m["svc.open_p99_ms"] = percentile(open.all_ms, tail);
  m["svc.capacity_rps"] = capacity;

  obs::MetricsRegistry registry;
  svc::Service& svc_service = server.service();
  svc_service.publish(registry);
  m["svc.service_p50_ms"] = metric(registry, "svc.latency_ms.ok.p50");
  m["svc.service_p99_ms"] = metric(registry, "svc.latency_ms.ok.p99");
  m["svc.transport_ms"] = open_p50 - m["svc.service_p50_ms"];
  std::vector<double> depth;
  std::vector<double> inflight;
  for (const svc::HealthInfo& health : open.health) {
    depth.push_back(health.queue_depth);
  }
  for (const svc::HealthInfo& health : closed.health) {
    inflight.push_back(health.inflight);
  }
  double depth_sum = 0;
  for (const double d : depth) depth_sum += d;
  m["svc.queue_depth_mean"] = depth.empty() ? 0 : depth_sum / depth.size();
  const svc::ServiceStats stats = svc_service.stats();
  m["svc.queue_high_water"] = static_cast<double>(stats.queue_high_water);
  m["svc.shed_ratio"] = stats.submitted == 0
                            ? 0
                            : static_cast<double>(stats.shed) /
                                  static_cast<double>(stats.submitted);
  const svc::StoreStats store = svc_service.skeleton_store().stats();
  m["svc.store_hit_ratio"] =
      store.hits + store.misses == 0
          ? 0
          : static_cast<double>(store.hits) /
                static_cast<double>(store.hits + store.misses);
  m["svc.store_inserts"] = static_cast<double>(store.inserted);
  const cache::CacheStats cache =
      svc_service.options().framework.result_cache->stats();
  m["cache.lookups"] = static_cast<double>(cache.lookups);
  m["cache.hit_ratio"] = cache.hit_rate();
  m["svc.gen_late_p99_ms"] = late_p99;
  const double decode = decode_us(inputs);
  if (decode < 0) out.fail("upload container failed to decode locally");
  m["archive.decode_us"] = decode;
  m["alloc.per_request"] =
      static_cast<double>(open.allocations) / static_cast<double>(open.sent);
  double inflight_sum = 0;
  for (const double v : inflight) inflight_sum += v;
  const double busy =
      inflight.empty() ? 0 : inflight_sum / inflight.size() / workers;
  m["serve_mix.unattributed_s"] = closed.wall_s * (1 - std::min(1.0, busy));
  m["perfbench.trace_overhead"] = baseline->rate_per_s / capacity - 1;
  return out;
}

}  // namespace perfbench
