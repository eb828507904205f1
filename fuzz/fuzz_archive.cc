// libFuzzer harness for the PSKARCH1 container and payload codecs.
//
// Exercises the full untrusted-bytes surface: header and frame parsing
// (magic, versions, size, checksum), the strict payload decoders, and the
// skeleton prefix decoder the salvage layer leans on.  The archive API
// reports errors through Result, so nothing here should throw at all; the
// prefix decoder additionally promises to never fail on mere truncation,
// which makes every mutated frame a meaningful input for it.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "archive/archive.h"
#include "archive/codec.h"
#include "util/error.h"

namespace {

void decode_payload(psk::archive::PayloadKind kind, std::string_view payload,
                    std::uint32_t version) {
  using psk::archive::PayloadKind;
  switch (kind) {
    case PayloadKind::kTrace:
      (void)psk::archive::decode_trace(payload, version);
      break;
    case PayloadKind::kSignature:
      (void)psk::archive::decode_signature(payload, version);
      break;
    case PayloadKind::kSkeleton: {
      (void)psk::archive::decode_skeleton(payload, version);
      psk::archive::PrefixStats stats;
      (void)psk::archive::decode_skeleton_prefix(payload, version, stats);
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  try {
    (void)psk::archive::looks_like_archive(bytes);
    (void)psk::archive::read_header(bytes);
    psk::archive::Result<psk::archive::Frame> frame =
        psk::archive::read_frame(bytes);
    if (frame.ok()) {
      const psk::archive::Frame f = frame.take();
      decode_payload(f.kind, f.payload, f.payload_version);
    }
    // The decoders also accept raw payload bytes (the salvage layer hands
    // the skeleton prefix decoder clamped slices of damaged files), so feed
    // the whole input as a bare payload of every kind too.
    decode_payload(psk::archive::PayloadKind::kTrace, bytes, 1);
    decode_payload(psk::archive::PayloadKind::kSignature, bytes, 1);
    decode_payload(psk::archive::PayloadKind::kSkeleton, bytes, 1);
  } catch (const psk::Error&) {
    // Result-based API; an Error here is tolerated but unexpected.
  }
  return 0;
}
