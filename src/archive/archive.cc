#include "archive/archive.h"

namespace psk::archive {

namespace {

constexpr std::size_t kChecksumSize = 8;

template <typename T>
Status save_as(const std::string& path, PayloadKind kind,
               std::uint32_t payload_version, const T& value) {
  std::string payload;
  encode(payload, value);
  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size() + kChecksumSize);
  write_frame(bytes, kind, payload_version, payload);
  return write_file_atomic(path, bytes);
}

/// Reads `path` and decodes the one payload of `kind` it must hold.  A
/// file without the archive magic is refused by name: the pre-archive text
/// formats are no longer read.
template <typename T>
Result<T> load_as(const std::string& path, PayloadKind kind,
                  Result<T> (*decode)(std::string_view, std::uint32_t)) {
  const Result<std::string> bytes = read_file(path);
  if (!bytes.ok()) return bytes.error();
  const Result<Frame> frame = read_frame(bytes.value());
  if (!frame.ok()) {
    if (frame.error().code != ErrorCode::kBadMagic) return frame.error();
    return Error{ErrorCode::kBadMagic,
                 path + " is not a PSKARCH1 archive (text trace, signature "
                        "and skeleton files are no longer read)"};
  }
  if (frame.value().kind != kind) {
    return Error{ErrorCode::kBadKind,
                 path + " holds a " +
                     payload_kind_name(frame.value().kind) + ", wanted a " +
                     payload_kind_name(kind)};
  }
  return decode(frame.value().payload, frame.value().payload_version);
}

}  // namespace

const char* payload_kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kTrace: return "trace";
    case PayloadKind::kSignature: return "signature";
    case PayloadKind::kSkeleton: return "skeleton";
  }
  return "unknown payload";
}

void write_frame(std::string& out, PayloadKind kind,
                 std::uint32_t payload_version, std::string_view payload) {
  out.append(kMagic);
  put_u16(out, kContainerVersion);
  put_u16(out, static_cast<std::uint16_t>(kind));
  put_u32(out, payload_version);
  put_u64(out, payload.size());
  out.append(payload);
  put_u64(out, fingerprint64(payload));
}

bool looks_like_archive(std::string_view bytes) {
  return bytes.substr(0, kMagic.size()) == kMagic;
}

Result<Header> read_header(std::string_view bytes) {
  if (!looks_like_archive(bytes)) {
    return Error{ErrorCode::kBadMagic, "not a psk archive"};
  }
  Cursor in(bytes.substr(kMagic.size()));
  const std::uint16_t container_version = in.u16();
  const std::uint16_t raw_kind = in.u16();
  Header header;
  header.payload_version = in.u32();
  header.payload_size = in.u64();
  if (!in.ok()) return in.error();
  if (container_version != kContainerVersion) {
    return Error{ErrorCode::kBadVersion,
                 "container version " + std::to_string(container_version)};
  }
  if (raw_kind < static_cast<std::uint16_t>(PayloadKind::kTrace) ||
      raw_kind > static_cast<std::uint16_t>(PayloadKind::kSkeleton)) {
    return Error{ErrorCode::kCorrupt,
                 "unknown payload kind " + std::to_string(raw_kind)};
  }
  header.kind = static_cast<PayloadKind>(raw_kind);
  return header;
}

Result<Frame> read_frame(std::string_view bytes) {
  const Result<Header> header = read_header(bytes);
  if (!header.ok()) return header.error();
  const std::uint64_t payload_size = header.value().payload_size;
  const std::size_t remaining = bytes.size() - kHeaderSize;
  // Declared size vs bytes actually present, checked before the payload is
  // copied: a hostile size field costs nothing.  Overflow-safe comparison
  // (payload_size + kChecksumSize could wrap).
  if (remaining < kChecksumSize || payload_size > remaining - kChecksumSize) {
    return Error{ErrorCode::kTruncated,
                 "payload declares " + std::to_string(payload_size) +
                     " byte(s) but only " + std::to_string(remaining) +
                     " remain"};
  }
  if (payload_size < remaining - kChecksumSize) {
    return Error{ErrorCode::kCorrupt,
                 "frame size mismatch (payload says " +
                     std::to_string(payload_size) + " byte(s), file has " +
                     std::to_string(remaining) + ")"};
  }
  Frame frame;
  frame.kind = header.value().kind;
  frame.payload_version = header.value().payload_version;
  frame.payload =
      std::string(bytes.substr(kHeaderSize, static_cast<std::size_t>(payload_size)));
  Cursor tail(bytes.substr(kHeaderSize + static_cast<std::size_t>(payload_size)));
  const std::uint64_t checksum = tail.u64();
  if (checksum != fingerprint64(frame.payload)) {
    return Error{ErrorCode::kCorrupt, "payload checksum mismatch"};
  }
  return frame;
}

Status save(const std::string& path, const trace::Trace& trace) {
  return save_as(path, PayloadKind::kTrace, kTraceVersion, trace);
}

Status save(const std::string& path, const sig::Signature& signature) {
  return save_as(path, PayloadKind::kSignature, kSignatureVersion, signature);
}

Status save(const std::string& path, const skeleton::Skeleton& skeleton) {
  return save_as(path, PayloadKind::kSkeleton, kSkeletonVersion, skeleton);
}

Result<trace::Trace> load_trace(const std::string& path) {
  return load_as(path, PayloadKind::kTrace, &decode_trace);
}

Result<sig::Signature> load_signature(const std::string& path) {
  return load_as(path, PayloadKind::kSignature, &decode_signature);
}

Result<skeleton::Skeleton> load_skeleton(const std::string& path) {
  return load_as(path, PayloadKind::kSkeleton, &decode_skeleton);
}

}  // namespace psk::archive
