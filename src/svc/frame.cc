#include "svc/frame.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psk::svc {

using archive::Cursor;
using archive::Error;
using archive::ErrorCode;
using archive::Result;

namespace {

constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 4;
constexpr std::size_t kChecksumSize = 8;

constexpr auto kLastFrameKind = static_cast<std::uint8_t>(FrameKind::kHealth);
constexpr auto kLastRequestOp =
    static_cast<std::uint8_t>(RequestOp::kConstruct);
constexpr auto kLastValidateMode =
    static_cast<std::uint8_t>(ValidateMode::kOff);

}  // namespace

const char* status_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBadInput: return "bad-input";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kCanceled: return "canceled";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kNotFound: return "not-found";
  }
  return "unknown";
}

bool is_retryable(StatusCode code) {
  return code == StatusCode::kOverloaded || code == StatusCode::kTimeout;
}

double RetryPolicy::backoff_seconds(int attempt) const {
  double backoff = initial_backoff_seconds;
  for (int i = 0; i < attempt && backoff < max_backoff_seconds; ++i) {
    backoff *= multiplier;
  }
  return std::min(backoff, max_backoff_seconds);
}

ValidateMode parse_validate_mode(const std::string& text) {
  if (text == "strict" || text == "true") return ValidateMode::kStrict;
  if (text == "salvage") return ValidateMode::kSalvage;
  if (text == "off") return ValidateMode::kOff;
  throw ConfigError("--validate must be one of strict|salvage|off (got '" +
                    text + "')");
}

archive::Status check_frame_body_size(std::size_t size) {
  if (size > kMaxEncodableBody) {
    return Error{ErrorCode::kTruncated,
                 "frame body of " + std::to_string(size) +
                     " byte(s) does not fit the u32 length field (max " +
                     std::to_string(kMaxEncodableBody) + ")"};
  }
  return {};
}

archive::Status append_frame(std::string& out, FrameKind kind,
                             std::string_view body) {
  // A body past the u32 length field would encode a wrapped length and
  // desync the stream at the next checksum; refuse it before writing.
  if (archive::Status size_ok = check_frame_body_size(body.size());
      !size_ok.ok()) {
    return size_ok;
  }
  out.append(kFrameMagic);
  archive::put_u8(out, kProtocolVersion);
  archive::put_u8(out, static_cast<std::uint8_t>(kind));
  archive::put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.append(body);
  archive::put_u64(out, archive::fingerprint64(body));
  return {};
}

ParseProgress try_parse_frame(std::string_view buffer, std::size_t max_body,
                              Frame& frame, std::size_t& consumed,
                              Error& error) {
  consumed = 0;
  // Validate every header field that has arrived so far, so a bad stream
  // fails at the first wrong byte instead of after a long blocking read.
  const std::size_t magic_have = std::min(buffer.size(), kFrameMagic.size());
  if (buffer.substr(0, magic_have) != kFrameMagic.substr(0, magic_have)) {
    error = Error{ErrorCode::kBadMagic, "not a pskd frame"};
    return ParseProgress::kBad;
  }
  if (buffer.size() > 4) {
    const auto version = static_cast<std::uint8_t>(buffer[4]);
    if (version != kProtocolVersion) {
      error = Error{ErrorCode::kBadVersion,
                    "frame protocol version " + std::to_string(version)};
      return ParseProgress::kBad;
    }
  }
  if (buffer.size() > 5) {
    const auto raw_kind = static_cast<std::uint8_t>(buffer[5]);
    if (raw_kind < static_cast<std::uint8_t>(FrameKind::kRequest) ||
        raw_kind > kLastFrameKind) {
      error = Error{ErrorCode::kCorrupt,
                    "unknown frame kind " + std::to_string(raw_kind)};
      return ParseProgress::kBad;
    }
  }
  if (buffer.size() < kHeaderSize) return ParseProgress::kNeedMore;

  Cursor header(buffer.substr(kFrameMagic.size() + 2));
  const std::uint32_t body_size = header.u32();
  // The cap is enforced on the *declared* size, before any body bytes are
  // buffered or copied: a hostile length field cannot drive allocation.
  if (body_size > max_body) {
    error = Error{ErrorCode::kTruncated,
                  "frame body of " + std::to_string(body_size) +
                      " byte(s) exceeds the " + std::to_string(max_body) +
                      "-byte cap"};
    return ParseProgress::kBad;
  }
  const std::size_t total = kHeaderSize + body_size + kChecksumSize;
  if (buffer.size() < total) return ParseProgress::kNeedMore;

  const std::string_view body = buffer.substr(kHeaderSize, body_size);
  Cursor tail(buffer.substr(kHeaderSize + body_size, kChecksumSize));
  if (tail.u64() != archive::fingerprint64(body)) {
    error = Error{ErrorCode::kCorrupt, "frame body checksum mismatch"};
    return ParseProgress::kBad;
  }
  frame.kind = static_cast<FrameKind>(buffer[5]);
  frame.body.assign(body);
  consumed = total;
  return ParseProgress::kFrame;
}

void encode_request(std::string& out, const RequestHeader& request) {
  archive::put_u32(out, request.id);
  archive::put_u8(out, static_cast<std::uint8_t>(request.op));
  archive::put_u8(out, static_cast<std::uint8_t>(request.validate));
  archive::put_f64(out, request.deadline_seconds);
  archive::put_u64(out, request.seed);
  archive::put_u32(out, request.repetitions);
  archive::put_f64(out, request.target_k);
  archive::put_u64(out, request.skeleton_hash);
  archive::put_string(out, request.scenario);
  out.append(request.archive_bytes);
}

Result<RequestHeader> decode_request(std::string_view body) {
  Cursor in(body);
  RequestHeader request;
  request.id = in.u32();
  const std::uint8_t op = in.u8();
  if (in.ok() && op > kLastRequestOp) {
    in.fail("unknown request op " + std::to_string(op));
  }
  request.op = static_cast<RequestOp>(op);
  const std::uint8_t validate = in.u8();
  if (in.ok() && validate > kLastValidateMode) {
    in.fail("unknown validate mode " + std::to_string(validate));
  }
  request.validate = static_cast<ValidateMode>(validate);
  request.deadline_seconds = in.f64();
  request.seed = in.u64();
  request.repetitions = in.u32();
  if (in.ok() &&
      (request.repetitions == 0 || request.repetitions > kMaxRepetitions)) {
    in.fail("repetitions must be in [1, " + std::to_string(kMaxRepetitions) +
            "], got " + std::to_string(request.repetitions));
  }
  request.target_k = in.f64();
  request.skeleton_hash = in.u64();
  request.scenario = in.string();
  if (!in.ok()) return in.error();
  if (!(request.deadline_seconds >= 0) ||
      request.deadline_seconds != request.deadline_seconds) {
    return Error{ErrorCode::kCorrupt, "negative or NaN deadline"};
  }
  if (!(request.target_k > 0) || !(request.target_k <= kMaxTargetK)) {
    return Error{ErrorCode::kCorrupt,
                 "target_k must be in (0, " + std::to_string(kMaxTargetK) +
                     "]"};
  }
  request.archive_bytes.assign(body.substr(body.size() - in.remaining()));
  if (request.skeleton_hash != 0) {
    // Predict-by-hash names a retained skeleton; an embedded container at
    // the same time would be ambiguous, and the other ops have no use for
    // a hash at all.
    if (request.op != RequestOp::kPredict) {
      return Error{ErrorCode::kCorrupt,
                   "skeleton_hash is only valid on predict requests"};
    }
    if (!request.archive_bytes.empty()) {
      return Error{ErrorCode::kCorrupt,
                   "predict-by-hash must not also embed a container"};
    }
  }
  return request;
}

void encode_response(std::string& out, const ResponseHeader& response) {
  archive::put_u32(out, response.id);
  archive::put_u8(out, static_cast<std::uint8_t>(response.status));
  archive::put_u8(out, response.degraded ? 1 : 0);
  archive::put_string(out, response.message);
  archive::put_u64(out, response.skeleton_hash);
  archive::put_string(out, response.skeleton_bytes);
  archive::put_u32(out, static_cast<std::uint32_t>(response.values.size()));
  for (const double value : response.values) archive::put_f64(out, value);
}

Result<ResponseHeader> decode_response(std::string_view body) {
  Cursor in(body);
  ResponseHeader response;
  response.id = in.u32();
  const std::uint8_t status = in.u8();
  if (in.ok() && status > kLastStatusCode) {
    in.fail("unknown status code " + std::to_string(status));
  }
  response.status = static_cast<StatusCode>(status);
  response.degraded = in.boolean();
  response.message = in.string();
  response.skeleton_hash = in.u64();
  response.skeleton_bytes = in.string();
  const std::uint32_t count = in.u32();
  if (in.ok() && count > kMaxRepetitions) {
    in.fail("implausible value count " + std::to_string(count));
  }
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    response.values.push_back(in.f64());
  }
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt, "trailing bytes after response body"};
  }
  return response;
}

void encode_health(std::string& out, const HealthInfo& health) {
  archive::put_f64(out, health.uptime_seconds);
  archive::put_u32(out, health.queue_depth);
  archive::put_u32(out, health.queue_capacity);
  archive::put_u32(out, health.inflight);
  archive::put_u32(out, health.workers);
  archive::put_u64(out, health.completed);
  archive::put_u64(out, health.shed);
  archive::put_u64(out, health.hung_detected);
  archive::put_u64(out, health.workers_replaced);
}

Result<HealthInfo> decode_health(std::string_view body) {
  Cursor in(body);
  HealthInfo health;
  health.uptime_seconds = in.f64();
  health.queue_depth = in.u32();
  health.queue_capacity = in.u32();
  health.inflight = in.u32();
  health.workers = in.u32();
  health.completed = in.u64();
  health.shed = in.u64();
  health.hung_detected = in.u64();
  health.workers_replaced = in.u64();
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt, "trailing bytes after health body"};
  }
  if (!(health.uptime_seconds >= 0) ||
      !std::isfinite(health.uptime_seconds)) {
    return Error{ErrorCode::kCorrupt, "negative, infinite or NaN uptime"};
  }
  return health;
}

}  // namespace psk::svc
