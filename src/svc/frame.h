// Wire protocol of the pskd prediction service.
//
// A session is a byte stream (stdin/stdout pipe or a local socket) carrying
// length-prefixed frames in both directions.  Frame layout (all integers
// explicit little-endian, like the PSKARCH1 container):
//
//   offset  size  field
//   0       4     magic "PSKF"
//   4       1     protocol version (currently 2)
//   5       1     frame kind (FrameKind)
//   6       4     body size N in bytes
//   10      N     body
//   10+N    8     FNV-1a fingerprint of the body
//
// The declared body size is validated against a hard cap *before* any
// buffer is allocated: a hostile length field costs the parser nothing.
// Request bodies carry a fixed header followed by an embedded PSKARCH1
// container -- a skeleton for kPredict, a folded trace for kConstruct --
// or, instead of a container, the content hash of a skeleton the server
// already retains (hot-skeleton reuse).  Response bodies carry a definite
// status -- every request submitted to the service produces exactly one
// response frame, including shed (kOverloaded) and expired (kTimeout)
// ones.  See docs/FORMATS.md for the field-by-field body layout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "archive/wire.h"
#include "svc/status.h"

namespace psk::svc {

inline constexpr std::string_view kFrameMagic = "PSKF";
inline constexpr std::uint8_t kProtocolVersion = 3;

/// Hard cap on a frame body.  Anything larger is rejected at the length
/// field, before allocation (uploads are skeletons, not bulk traces).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Cap on per-request repetitions, so one request cannot monopolise the
/// service with an absurd repetition count.
inline constexpr std::uint32_t kMaxRepetitions = 64;

enum class FrameKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Client asks the server to execute everything queued on this session
  /// and write the responses (pipe-mode batch boundary).  Empty body.
  kFlush = 3,
  /// Health exchange: a client sends an empty-body kHealth frame and the
  /// server answers immediately with a kHealth frame carrying a HealthInfo
  /// body -- *bypassing* admission, so the probe works (and reports queue
  /// depth for client backoff) even when the service is overloaded.
  kHealth = 4,
};

struct Frame {
  FrameKind kind = FrameKind::kRequest;
  std::string body;
};

/// Largest body the u32 length field can carry.  append_frame refuses
/// anything bigger: encoding it would silently truncate the length and
/// desync the stream at the next checksum.
inline constexpr std::size_t kMaxEncodableBody = 0xFFFFFFFFu;

/// Rejects (kTruncated) body sizes the frame length field cannot
/// represent.  Split out of append_frame so the 4 GiB boundary is testable
/// without allocating 4 GiB.
archive::Status check_frame_body_size(std::size_t size);

/// Appends one framed message to `out`.  Fails (leaving `out` untouched)
/// when the body exceeds kMaxEncodableBody.
archive::Status append_frame(std::string& out, FrameKind kind,
                             std::string_view body);

enum class ParseProgress {
  kFrame,     // one complete frame parsed and consumed
  kNeedMore,  // buffer holds a valid proper prefix; feed more bytes
  kBad,       // the stream is unusable (bad magic/version/size/checksum)
};

/// Incremental frame parser over a growing buffer.  On kFrame, `frame` is
/// filled and `consumed` says how many buffer bytes to discard.  On kBad,
/// `error` says why; the stream cannot be resynchronised.  `max_body`
/// bounds the declared body size (allocation happens only after the whole
/// body arrived and the size passed the cap).
ParseProgress try_parse_frame(std::string_view buffer, std::size_t max_body,
                              Frame& frame, std::size_t& consumed,
                              archive::Error& error);

// ------------------------------------------------------------- request

enum class RequestOp : std::uint8_t {
  /// Liveness probe: no payload, responds kOk immediately (still queued
  /// through admission, so a ping observes overload like any request).
  kPing = 0,
  /// Run the uploaded skeleton under a named scenario and return the
  /// measured times, one per repetition.  The upload is either an embedded
  /// skeleton container or, when `skeleton_hash` is nonzero, the content
  /// hash of a skeleton the server retains from an earlier upload.
  kPredict = 1,
  /// Upload a folded execution trace and run the construction pipeline
  /// (fold -> cluster -> compress -> scale at K = target_k) server-side.
  /// The response returns the constructed skeleton container and its
  /// content hash; the server retains the skeleton for predict-by-hash.
  kConstruct = 2,
};

enum class ValidateMode : std::uint8_t {
  kStrict = 0,
  kSalvage = 1,
  kOff = 2,
};

/// Parses a --validate flag value; throws ConfigError listing the valid
/// modes on anything else (mirrors the unknown-scenario-name behaviour).
ValidateMode parse_validate_mode(const std::string& text);

/// Cap on kConstruct's scaling factor K, so a hostile request cannot ask
/// for an absurd compression target.
inline constexpr double kMaxTargetK = 1.0e6;

struct RequestHeader {
  std::uint32_t id = 0;
  RequestOp op = RequestOp::kPredict;
  ValidateMode validate = ValidateMode::kStrict;
  /// Wall-clock budget in seconds from admission; 0 = server default.
  double deadline_seconds = 0;
  /// Measurement seed base; repetition r runs at seed + r.
  std::uint64_t seed = 0;
  std::uint32_t repetitions = 1;
  /// kConstruct: scaling factor K for the construction pipeline
  /// (compression targets Q = K / divisor, the paper's K/2).  Must be in
  /// (0, kMaxTargetK].  Ignored by kPing/kPredict.
  double target_k = 10.0;
  /// kPredict: when nonzero, the content hash of a retained skeleton
  /// (hot-skeleton reuse); `archive_bytes` must then be empty.  A miss
  /// answers kNotFound and the client re-uploads the container.
  std::uint64_t skeleton_hash = 0;
  std::string scenario = "dedicated";
  /// Embedded PSKARCH1 container bytes: the uploaded skeleton (kPredict)
  /// or folded trace (kConstruct).  Empty for predict-by-hash.
  std::string archive_bytes;
};

void encode_request(std::string& out, const RequestHeader& request);
archive::Result<RequestHeader> decode_request(std::string_view body);

// ------------------------------------------------------------ response

struct ResponseHeader {
  std::uint32_t id = 0;
  StatusCode status = StatusCode::kInternal;
  /// True when the service degraded to produce this answer (salvaged a
  /// rejected upload, downgraded validation errors to warnings).
  bool degraded = false;
  /// Diagnostic, empty on success.  Deterministic for identical requests.
  std::string message;
  /// Content hash (archive::fingerprint64 over the canonical skeleton
  /// container bytes) of the skeleton this response used or constructed;
  /// the server retains it for predict-by-hash.  0 when no skeleton was
  /// involved (ping, shed, undecodable upload).
  std::uint64_t skeleton_hash = 0;
  /// Canonical PSKARCH1 skeleton container bytes; non-empty only on a
  /// successful kConstruct response.
  std::string skeleton_bytes;
  /// Measured skeleton times, one per repetition; empty unless kOk.
  std::vector<double> values;
};

void encode_response(std::string& out, const ResponseHeader& response);
archive::Result<ResponseHeader> decode_response(std::string_view body);

// -------------------------------------------------------------- health

/// Body of a server kHealth frame: the liveness snapshot clients use for
/// backoff decisions (a deep queue or high inflight count means "retry
/// later", long before a request would shed).  See docs/FORMATS.md.
struct HealthInfo {
  /// Seconds since the service was constructed.
  double uptime_seconds = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;
  /// Requests executing on workers right now.
  std::uint32_t inflight = 0;
  std::uint32_t workers = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Supervisor self-healing counters: hung requests answered kTimeout and
  /// worker threads isolated + replaced because of them.
  std::uint64_t hung_detected = 0;
  std::uint64_t workers_replaced = 0;
};

void encode_health(std::string& out, const HealthInfo& health);
archive::Result<HealthInfo> decode_health(std::string_view body);

}  // namespace psk::svc
