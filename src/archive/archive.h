// The psk archive: the one file format for traces, signatures and
// skeletons, a versioned container around their canonical codec payloads.
//
// Container layout (all integers explicit little-endian):
//
//   offset  size  field
//   0       8     magic "PSKARCH1"
//   8       2     container version (currently 1)
//   10      2     payload kind (PayloadKind)
//   12      4     payload version (codec.h constants)
//   16      8     payload size in bytes
//   24      n     payload (canonical codec bytes)
//   24+n    8     FNV-1a fingerprint of the payload
//
// There is no other format: a file that does not start with the archive
// magic is refused with kBadMagic naming the file.  Errors are typed
// (Result<T>/Status); use .or_throw() where exceptions are preferred.
#pragma once

#include <string>
#include <string_view>

#include "archive/codec.h"
#include "archive/wire.h"

namespace psk::archive {

inline constexpr std::string_view kMagic = "PSKARCH1";
inline constexpr std::uint16_t kContainerVersion = 1;

enum class PayloadKind : std::uint16_t {
  kTrace = 1,
  kSignature = 2,
  kSkeleton = 3,
};

const char* payload_kind_name(PayloadKind kind);

/// Bytes before the payload: magic, both versions, kind and payload size.
inline constexpr std::size_t kHeaderSize = kMagic.size() + 2 + 2 + 4 + 8;

/// A parsed container header.  `payload_size` is as declared; nothing
/// checks yet that the payload and checksum behind it are present.
struct Header {
  PayloadKind kind = PayloadKind::kTrace;
  std::uint32_t payload_version = 0;
  std::uint64_t payload_size = 0;
};

/// Parses the header at the start of `bytes` (magic, container version and
/// kind verified).  read_frame starts here; the salvage layer uses it alone
/// on torn files, whose payload and checksum read_frame would refuse.
Result<Header> read_header(std::string_view bytes);

/// A parsed container frame: the payload bytes plus their framing metadata.
struct Frame {
  PayloadKind kind = PayloadKind::kTrace;
  std::uint32_t payload_version = 0;
  std::string payload;
};

/// Frames `payload` into a container and appends the bytes to `out`.
void write_frame(std::string& out, PayloadKind kind,
                 std::uint32_t payload_version, std::string_view payload);

/// Parses a container frame (magic, versions, size, checksum all verified).
Result<Frame> read_frame(std::string_view bytes);

/// True when `bytes` begins with the archive magic.
bool looks_like_archive(std::string_view bytes);

// ------------------------------------------------------- file operations
//
// save_* writes the archive container atomically (temp file + rename): a
// crashed writer never leaves a torn file at `path`.  load_* reads the
// container and decodes its payload strictly: any damage is a typed error
// (the guard salvage layer recovers torn skeletons).

Status save(const std::string& path, const trace::Trace& trace);
Status save(const std::string& path, const sig::Signature& signature);
Status save(const std::string& path, const skeleton::Skeleton& skeleton);

Result<trace::Trace> load_trace(const std::string& path);
Result<sig::Signature> load_signature(const std::string& path);
Result<skeleton::Skeleton> load_skeleton(const std::string& path);

}  // namespace psk::archive
