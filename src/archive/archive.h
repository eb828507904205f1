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
// whose message names the file.

Status save(const std::string& path, const trace::Trace& trace);
Status save(const std::string& path, const sig::Signature& signature);
Status save(const std::string& path, const skeleton::Skeleton& skeleton);

Result<trace::Trace> load_trace(const std::string& path);
Result<sig::Signature> load_signature(const std::string& path);
Result<skeleton::Skeleton> load_skeleton(const std::string& path);

}  // namespace psk::archive
