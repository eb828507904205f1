// libFuzzer harness for the PSKARCH1 container and payload codecs, the one
// file format for traces, signatures and skeletons.
//
// Exercises the full untrusted-bytes surface: header and frame parsing
// (magic, versions, size, checksum), the strict payload decoders, the
// skeleton prefix decoder and the skeleton salvor built on it.  Every value
// that decodes is run through its guard validator, so the validators'
// recursive walks see fuzzer-shaped loop nests as well.  The archive API
// reports errors through Result, so nothing here should throw at all; the
// prefix decoder additionally promises to never fail on mere truncation,
// which makes every mutated frame a meaningful input for it.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "archive/archive.h"
#include "archive/codec.h"
#include "guard/salvage.h"
#include "guard/validate.h"
#include "util/error.h"

namespace {

/// Renders the validator's report for a decoded value; rendering must not
/// throw either.
template <typename T, typename Validate>
void validate(const psk::archive::Result<T>& decoded, Validate validator) {
  if (decoded.ok()) (void)validator(decoded.value()).render();
}

void decode_payload(psk::archive::PayloadKind kind, std::string_view payload,
                    std::uint32_t version) {
  using psk::archive::PayloadKind;
  switch (kind) {
    case PayloadKind::kTrace:
      validate(psk::archive::decode_trace(payload, version),
               psk::guard::validate_trace);
      break;
    case PayloadKind::kSignature:
      validate(psk::archive::decode_signature(payload, version),
               psk::guard::validate_signature);
      break;
    case PayloadKind::kSkeleton: {
      validate(psk::archive::decode_skeleton(payload, version),
               psk::guard::validate_skeleton);
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
    // The salvor must recover, reject or report -- never crash -- on
    // arbitrary damage.
    psk::guard::SalvageReport report;
    (void)psk::guard::salvage_skeleton_bytes(std::string(bytes), report);
    (void)report.render();
  } catch (const psk::Error&) {
    // Result-based API; an Error here is tolerated but unexpected.
  }
  return 0;
}
