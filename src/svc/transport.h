// Local-socket / TCP transport for the pskd prediction service.
//
// Pipe mode (PR 7) serves exactly one client per process; this layer turns
// the same framed protocol into a deployment surface: a listener accepts
// connections and gives each one a Session (svc/session.h) on its own
// thread, all submitting into one shared admission-controlled Service.
//
//   pskd --listen=unix:/tmp/pskd.sock
//   pskd --listen=tcp:127.0.0.1:7071
//
// Address syntax is `unix:<path>` or `tcp:<host>:<port>` (IPv4 numeric or
// `localhost`; port 0 binds an ephemeral port, readable back from
// bound_address() -- tests use that).  Binding a unix path takes it over:
// a stale socket file from a crashed daemon is unlinked.
//
// SocketClient is the matching blocking client used by the tests, the
// socket smoke and the load bench; real deployments can speak the frame
// protocol from any language.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/frame.h"
#include "svc/session.h"

namespace psk::svc {

struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  /// unix: filesystem path of the socket.
  std::string path;
  /// tcp: numeric IPv4 host (or "localhost") and port; port 0 = ephemeral.
  std::string host;
  std::uint16_t port = 0;
};

/// Parses `unix:<path>` / `tcp:<host>:<port>`; throws ConfigError naming
/// the accepted forms on anything else.
ListenAddress parse_listen_address(const std::string& text);

/// Canonical rendering, e.g. "unix:/tmp/pskd.sock" or "tcp:127.0.0.1:7071".
std::string listen_address_name(const ListenAddress& address);

struct SocketServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t clean = 0;         // sessions that ended at a frame boundary
  std::uint64_t mid_frame = 0;     // client died mid-send
  std::uint64_t bad_stream = 0;    // unparsable bytes
  std::uint64_t write_failed = 0;  // client stopped reading
  std::uint64_t accept_retries = 0;  // transient accept() failures survived
};

/// How the accept loop should react to an accept() errno.  A connection
/// that died in the backlog (ECONNABORTED) or an interrupted call costs
/// nothing to retry immediately; resource exhaustion (EMFILE/ENFILE/
/// ENOBUFS/ENOMEM) is usually transient -- sessions closing return fds --
/// so the loop backs off instead of killing the whole listener; anything
/// else means the listener itself is dead.
enum class AcceptAction {
  kRetry,         // transient, retry immediately
  kRetryBackoff,  // resource exhaustion, retry after bounded backoff
  kFatal,         // the listening socket is unusable
};

AcceptAction classify_accept_errno(int error);

/// Accepts connections on a bound address and runs one Session per
/// connection.  The listening socket is bound at construction (so an
/// ephemeral TCP port is known before serve()); serve() runs the accept
/// loop on the calling thread.
class SocketServer {
 public:
  /// Binds and listens; throws ConfigError on bind/listen failure.  The
  /// service must be in live mode (start() called) before serve().
  SocketServer(ListenAddress address, Service& service,
               SessionOptions session_options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound address -- identical to the constructor's except that an
  /// ephemeral TCP port (0) is resolved to the real one.
  const ListenAddress& bound_address() const { return address_; }

  /// Accept loop.  Returns after `max_connections` accepted connections
  /// have fully ended (0 = serve until stop()), with all session threads
  /// joined.  Responses still queued in the service when a session ends
  /// are delivered as the service drains them; Session lifetimes extend
  /// past the join via the per-request deliver closures.
  void serve(std::size_t max_connections = 0);

  /// Unblocks serve() from another thread: shuts the listener down (its
  /// descriptor is closed by the destructor, once serve() has returned)
  /// and the read side of every active session so their loops end.
  /// Idempotent.
  void stop();

  SocketServerStats stats() const;

 private:
  void run_session(std::shared_ptr<Session> session);

  ListenAddress address_;
  Service& service_;
  SessionOptions session_options_;
  int listen_fd_ = -1;

  mutable std::mutex mutex_;
  bool stopping_ = false;
  std::vector<std::weak_ptr<Session>> active_;
  std::vector<std::thread> threads_;
  SocketServerStats stats_;
};

/// Blocking client for tests and benches: connect, write frames, read
/// back responses.
class SocketClient {
 public:
  /// Connects; throws ConfigError when the endpoint does not resolve or
  /// refuses.
  explicit SocketClient(const ListenAddress& address);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  void send_frame(FrameKind kind, std::string_view body);
  void send_request(const RequestHeader& request);
  /// Sends raw bytes as-is -- tests use it to die mid-frame on purpose.
  void send_bytes(std::string_view bytes);

  /// Blocks for the next frame of any kind; false on EOF or a bad stream.
  bool read_frame(Frame& frame);

  /// Blocks for the next response frame; false on EOF or a bad stream.
  /// Response frames stashed aside by query_health() are returned first.
  bool read_response(ResponseHeader& response);

  /// Health exchange: sends a kHealth probe and blocks for the server's
  /// kHealth answer.  Response frames that arrive first (in-flight
  /// requests completing) are stashed for read_response().  nullopt when
  /// the connection died or the answer failed to decode.
  std::optional<HealthInfo> query_health();

  /// Half-close: signals EOF to the server while leaving the read side
  /// open for remaining responses.
  void shutdown_send();
  /// Hard close both directions (the abrupt-disconnect shape).
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
  std::deque<ResponseHeader> pending_;
};

struct RetryStats {
  std::uint64_t requests = 0;        // call() invocations
  std::uint64_t connects = 0;        // connections established (first + re)
  std::uint64_t retries = 0;         // backoff retries (transport loss or a
                                     // retryable status)
  std::uint64_t replays_by_hash = 0; // predicts sent as hash instead of bytes
  std::uint64_t reuploads = 0;       // hash replays the server answered
                                     // kNotFound (restart); container resent
};

/// Self-healing request client: one call() per request, with automatic
/// reconnect on a dead connection, deterministic exponential backoff on
/// retryable statuses (kOverloaded/kTimeout), and idempotent replay keyed
/// by content hash -- an upload the server has already retained is resent
/// as a ~100-byte predict-by-hash, and a kNotFound on that replay (the
/// server restarted with a fresh store) transparently falls back to
/// re-uploading the container.  Retrying is safe because every request is
/// a seeded deterministic computation: executing it twice returns the same
/// bytes.  Single-threaded: one outstanding call() at a time.
class RetryingClient {
 public:
  RetryingClient(ListenAddress address, RetryPolicy policy = {});

  /// Sends the request and blocks for its response, reconnecting and
  /// retrying per the policy.  Always returns a definite response: when
  /// every attempt died on transport, a synthesized kInternal one.
  ResponseHeader call(const RequestHeader& request);

  /// Health probe over the current connection (reconnecting if needed);
  /// nullopt when the server is unreachable.
  std::optional<HealthInfo> query_health();

  const RetryStats& stats() const { return stats_; }

 private:
  bool ensure_connected();

  const ListenAddress address_;
  const RetryPolicy policy_;
  std::unique_ptr<SocketClient> client_;
  /// fingerprint64(uploaded container) -> the skeleton_hash the server
  /// advertised for it: the replay-by-hash key cache.
  std::unordered_map<std::uint64_t, std::uint64_t> known_hashes_;
  RetryStats stats_;
};

}  // namespace psk::svc
