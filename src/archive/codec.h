// Canonical byte encodings of the repo's domain values.
//
// Each encode() appends an explicit little-endian, field-order-fixed byte
// rendering of the value to `out`.  The encoding is *canonical*: equal
// values always encode to identical bytes, on any host.  It serves two
// consumers:
//   - the psk::archive container stores these bytes as payloads (the one
//     file format for traces, signatures and skeletons), and
//   - the psk::cache result cache hashes them as content-addressed keys
//     (scenario / cluster / MPI configs are encode-only: key material that
//     is never loaded back).
//
// Decoders return Result<T> with typed errors; they never throw and never
// return silently defaulted values.  Only skeletons, the one artifact that
// is shipped and can arrive torn, also have a lenient prefix decoder.
#pragma once

#include <string>
#include <string_view>

#include "archive/wire.h"
#include "mpi/types.h"
#include "scenario/scenario.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"

namespace psk::archive {

/// Payload versions, bumped whenever the corresponding encoding changes.
/// Readers reject newer versions with ErrorCode::kBadVersion.
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kSignatureVersion = 1;
inline constexpr std::uint32_t kSkeletonVersion = 1;

void encode(std::string& out, const trace::Trace& trace);
void encode(std::string& out, const sig::Signature& signature);
void encode(std::string& out, const skeleton::Skeleton& skeleton);

// Key-material encoders (never decoded; cache keys only).
void encode(std::string& out, const scenario::Scenario& scenario);
void encode(std::string& out, const sim::ClusterConfig& cluster);
void encode(std::string& out, const mpi::MpiConfig& mpi);

Result<trace::Trace> decode_trace(std::string_view payload,
                                  std::uint32_t version = kTraceVersion);
Result<sig::Signature> decode_signature(
    std::string_view payload, std::uint32_t version = kSignatureVersion);
Result<skeleton::Skeleton> decode_skeleton(
    std::string_view payload, std::uint32_t version = kSkeletonVersion);

// ------------------------------------------------------ skeleton salvage
//
// A lenient skeleton decoder for the guard salvage layer: instead of
// rejecting a truncated payload outright, it keeps every *whole* rank
// decoded before the first failure (a rank's loop forest is useless
// half-read).  It still rejects unknown payload versions and a damaged
// skeleton header.

struct PrefixStats {
  std::uint64_t ranks_expected = 0;
  std::uint64_t ranks_kept = 0;
  /// Payload bytes consumed by the kept prefix (diagnostic byte offset of
  /// the first dropped byte, relative to the payload start).
  std::size_t bytes_consumed = 0;
  /// Why decoding stopped short, empty when the whole payload decoded.
  std::string detail;
};

Result<skeleton::Skeleton> decode_skeleton_prefix(std::string_view payload,
                                                  std::uint32_t version,
                                                  PrefixStats& stats);

}  // namespace psk::archive
