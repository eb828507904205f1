#include "svc/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "archive/wire.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::svc {

namespace {

constexpr const char* kAddressForms = "unix:<path> or tcp:<host>:<port>";

std::uint16_t parse_port(const std::string& text) {
  if (text.empty() || text.size() > 5 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw ConfigError("--listen: port '" + text + "' is not a number in "
                      "[0, 65535]");
  }
  const unsigned long value = std::stoul(text);
  if (value > 65535) {
    throw ConfigError("--listen: port " + text + " is out of [0, 65535]");
  }
  return static_cast<std::uint16_t>(value);
}

/// Numeric IPv4 (or "localhost"/"" = loopback) to network order.
in_addr_t resolve_host(const std::string& host) {
  if (host.empty() || host == "localhost") return htonl(INADDR_LOOPBACK);
  in_addr parsed{};
  if (inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
    throw ConfigError("--listen: host '" + host +
                      "' is not a numeric IPv4 address or 'localhost'");
  }
  return parsed.s_addr;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw ConfigError(what + ": " + std::strerror(errno));
}

}  // namespace

ListenAddress parse_listen_address(const std::string& text) {
  ListenAddress address;
  if (text.rfind("unix:", 0) == 0) {
    address.kind = ListenAddress::Kind::kUnix;
    address.path = text.substr(5);
    if (address.path.empty()) {
      throw ConfigError("--listen: unix socket path is empty (want " +
                        std::string(kAddressForms) + ")");
    }
    if (address.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw ConfigError("--listen: unix socket path longer than " +
                        std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) +
                        " bytes");
    }
    return address;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      throw ConfigError("--listen: tcp address '" + rest +
                        "' is missing a port (want " +
                        std::string(kAddressForms) + ")");
    }
    address.kind = ListenAddress::Kind::kTcp;
    address.host = rest.substr(0, colon);
    address.port = parse_port(rest.substr(colon + 1));
    resolve_host(address.host);  // fail at parse time, not bind time
    return address;
  }
  throw ConfigError("--listen: '" + text + "' (want " +
                    std::string(kAddressForms) + ")");
}

std::string listen_address_name(const ListenAddress& address) {
  if (address.kind == ListenAddress::Kind::kUnix) {
    return "unix:" + address.path;
  }
  return "tcp:" + (address.host.empty() ? "localhost" : address.host) + ":" +
         std::to_string(address.port);
}

// ------------------------------------------------------------ SocketServer

SocketServer::SocketServer(ListenAddress address, Service& service,
                           SessionOptions session_options)
    : address_(std::move(address)),
      service_(service),
      session_options_(std::move(session_options)) {
  if (address_.kind == ListenAddress::Kind::kUnix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("--listen: socket");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address_.path.c_str(),
                 sizeof(sun.sun_path) - 1);
    // Take the path over: a stale socket file from a crashed daemon would
    // otherwise make every restart fail with EADDRINUSE.
    ::unlink(address_.path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) <
        0) {
      ::close(listen_fd_);
      throw_errno("--listen: bind " + address_.path);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("--listen: socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = resolve_host(address_.host);
    sin.sin_port = htons(address_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) <
        0) {
      ::close(listen_fd_);
      throw_errno("--listen: bind " + listen_address_name(address_));
    }
    if (address_.port == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0) {
        address_.port = ntohs(bound.sin_port);
      }
    }
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw_errno("--listen: listen " + listen_address_name(address_));
  }
}

SocketServer::~SocketServer() {
  stop();
  {
    // serve() may never have run; join anything it left behind.
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }
  ::close(listen_fd_);
  if (address_.kind == ListenAddress::Kind::kUnix) {
    ::unlink(address_.path.c_str());
  }
}

AcceptAction classify_accept_errno(int error) {
  switch (error) {
    case EINTR:
    case ECONNABORTED:
      return AcceptAction::kRetry;
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptAction::kRetryBackoff;
    default:
      return AcceptAction::kFatal;
  }
}

void SocketServer::serve(std::size_t max_connections) {
  std::size_t accepted = 0;
  // Bounded backoff for resource-exhaustion accept failures: doubling from
  // 10ms, capped, reset by any successful accept.
  constexpr auto kBackoffFloor = std::chrono::milliseconds(10);
  constexpr auto kBackoffCeiling = std::chrono::milliseconds(500);
  auto backoff = kBackoffFloor;
  while (max_connections == 0 || accepted < max_connections) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int error = errno;
      const AcceptAction action = classify_accept_errno(error);
      // stop() shut the listener down under us; accept() then fails with
      // EINVAL, which looks fatal, and the loop must end either way.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) break;
      }
      if (action == AcceptAction::kFatal) break;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.accept_retries;
      }
      util::log_warn() << "pskd: accept on "
                       << listen_address_name(address_) << ": "
                       << std::strerror(error)
                       << (action == AcceptAction::kRetryBackoff
                               ? "; backing off"
                               : "; retrying");
      if (action == AcceptAction::kRetryBackoff) {
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, kBackoffCeiling);
      }
      continue;
    }
    backoff = kBackoffFloor;
    ++accepted;
    auto session =
        std::make_shared<Session>(fd, service_, session_options_);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.accepted;
    active_.push_back(session);
    threads_.emplace_back(
        [this, session = std::move(session)]() mutable {
          run_session(std::move(session));
        });
  }
  // Wait for every accepted connection to finish its read loop.  Responses
  // their requests still owe are delivered by the service afterwards (the
  // deliver closures keep the sessions alive).
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(threads_);
  }
  for (std::thread& thread : threads) thread.join();
}

void SocketServer::run_session(std::shared_ptr<Session> session) {
  const SessionEnd end = session->run();
  std::lock_guard<std::mutex> lock(mutex_);
  switch (end) {
    case SessionEnd::kClean: ++stats_.clean; break;
    case SessionEnd::kMidFrame: ++stats_.mid_frame; break;
    case SessionEnd::kBadStream: ++stats_.bad_stream; break;
    case SessionEnd::kWriteFailed: ++stats_.write_failed; break;
  }
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].expired() || active_[i].lock() == session) {
      active_[i] = active_.back();
      active_.pop_back();
    } else {
      ++i;
    }
  }
}

void SocketServer::stop() {
  std::vector<std::shared_ptr<Session>> to_abort;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (const auto& weak : active_) {
      if (auto session = weak.lock()) to_abort.push_back(std::move(session));
    }
  }
  // Shutting the listener down makes a blocked (or later) accept() fail
  // with EINVAL; aborting the sessions unblocks their reads so serve() can
  // join them.  The descriptor stays open until the destructor, after
  // serve() has returned, so serve() never accepts on a closed or reused
  // descriptor number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (const auto& session : to_abort) session->abort();
}

SocketServerStats SocketServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ------------------------------------------------------------ SocketClient

SocketClient::SocketClient(const ListenAddress& address) {
  if (address.kind == ListenAddress::Kind::kUnix) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("connect: socket");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0) {
      ::close(fd_);
      fd_ = -1;
      throw_errno("connect " + listen_address_name(address));
    }
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("connect: socket");
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = resolve_host(address.host);
    sin.sin_port = htons(address.port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) < 0) {
      ::close(fd_);
      fd_ = -1;
      throw_errno("connect " + listen_address_name(address));
    }
  }
}

SocketClient::~SocketClient() { close(); }

void SocketClient::send_frame(FrameKind kind, std::string_view body) {
  std::string framed;
  append_frame(framed, kind, body).or_throw();
  send_bytes(framed);
}

void SocketClient::send_request(const RequestHeader& request) {
  std::string body;
  encode_request(body, request);
  send_frame(FrameKind::kRequest, body);
}

void SocketClient::send_bytes(std::string_view bytes) {
  std::size_t sent = 0;
  while (fd_ >= 0 && sent < bytes.size()) {
    const ssize_t wrote = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(wrote);
  }
}

bool SocketClient::read_frame(Frame& frame) {
  while (fd_ >= 0) {
    std::size_t consumed = 0;
    archive::Error error;
    switch (try_parse_frame(buffer_, kMaxFrameBytes, frame, consumed, error)) {
      case ParseProgress::kFrame:
        buffer_.erase(0, consumed);
        return true;
      case ParseProgress::kBad:
        return false;
      case ParseProgress::kNeedMore:
        break;
    }
    char chunk[1 << 16];
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  return false;
}

bool SocketClient::read_response(ResponseHeader& response) {
  if (!pending_.empty()) {
    response = std::move(pending_.front());
    pending_.pop_front();
    return true;
  }
  Frame frame;
  if (!read_frame(frame)) return false;
  if (frame.kind != FrameKind::kResponse) return false;
  archive::Result<ResponseHeader> decoded = decode_response(frame.body);
  if (!decoded.ok()) return false;
  response = decoded.take();
  return true;
}

std::optional<HealthInfo> SocketClient::query_health() {
  send_frame(FrameKind::kHealth, {});
  Frame frame;
  while (read_frame(frame)) {
    if (frame.kind == FrameKind::kHealth) {
      archive::Result<HealthInfo> decoded = decode_health(frame.body);
      if (!decoded.ok()) return std::nullopt;
      return decoded.take();
    }
    if (frame.kind != FrameKind::kResponse) return std::nullopt;
    // An in-flight request completed while the probe was on the wire; keep
    // its response for the next read_response().
    archive::Result<ResponseHeader> decoded = decode_response(frame.body);
    if (!decoded.ok()) return std::nullopt;
    pending_.push_back(decoded.take());
  }
  return std::nullopt;
}

void SocketClient::shutdown_send() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void SocketClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------- RetryingClient

RetryingClient::RetryingClient(ListenAddress address, RetryPolicy policy)
    : address_(std::move(address)), policy_(policy) {}

bool RetryingClient::ensure_connected() {
  if (client_) return true;
  try {
    client_ = std::make_unique<SocketClient>(address_);
    ++stats_.connects;
    return true;
  } catch (const ConfigError&) {
    return false;  // server down or restarting; the caller backs off
  }
}

ResponseHeader RetryingClient::call(const RequestHeader& request) {
  ++stats_.requests;
  const std::uint64_t upload_fp =
      request.archive_bytes.empty()
          ? 0
          : archive::fingerprint64(request.archive_bytes);
  for (int attempt = 0;; ++attempt) {
    RequestHeader wire = request;
    // Idempotent replay by content hash: when the server has already
    // retained this exact upload, name it instead of resending the bytes.
    bool replayed_by_hash = false;
    if (request.op == RequestOp::kPredict && request.skeleton_hash == 0 &&
        upload_fp != 0) {
      const auto known = known_hashes_.find(upload_fp);
      if (known != known_hashes_.end()) {
        wire.skeleton_hash = known->second;
        wire.archive_bytes.clear();
        replayed_by_hash = true;
        ++stats_.replays_by_hash;
      }
    }
    ResponseHeader response;
    bool transported = false;
    try {
      if (ensure_connected()) {
        client_->send_request(wire);
        transported = client_->read_response(response);
      }
    } catch (const ConfigError&) {
      transported = false;  // the connection died mid-send
    }
    if (!transported) {
      client_.reset();
      if (attempt + 1 >= policy_.max_attempts) {
        response = ResponseHeader{};
        response.id = request.id;
        response.status = StatusCode::kInternal;
        response.message = "transport failed after " +
                           std::to_string(policy_.max_attempts) +
                           " attempt(s) to " + listen_address_name(address_);
        return response;
      }
      ++stats_.retries;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(policy_.backoff_seconds(attempt)));
      continue;
    }
    if (replayed_by_hash && response.status == StatusCode::kNotFound) {
      // The server lost its store (restart, eviction): forget the hash and
      // resend the container immediately -- this is recovery, not backoff.
      known_hashes_.erase(upload_fp);
      ++stats_.reuploads;
      continue;
    }
    if (upload_fp != 0 && response.skeleton_hash != 0) {
      known_hashes_[upload_fp] = response.skeleton_hash;
    }
    if (is_retryable(response.status) && attempt + 1 < policy_.max_attempts) {
      ++stats_.retries;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(policy_.backoff_seconds(attempt)));
      continue;
    }
    return response;
  }
}

std::optional<HealthInfo> RetryingClient::query_health() {
  try {
    if (!ensure_connected()) return std::nullopt;
    std::optional<HealthInfo> health = client_->query_health();
    if (!health) client_.reset();
    return health;
  } catch (const ConfigError&) {
    client_.reset();
    return std::nullopt;
  }
}

}  // namespace psk::svc
