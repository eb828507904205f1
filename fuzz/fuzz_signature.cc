// libFuzzer harness for the signature / skeleton text codec.
//
// Skeleton files embed the signature node format, so one harness feeds the
// same input to both parsers: any byte string either parses or throws
// psk::Error.  Parsed values are run through the guard validators so their
// recursive walks see fuzzer-shaped loop nests as well, and the same bytes
// are pushed through the skeleton salvor, whose job is precisely to survive
// arbitrary damage (it must recover, reject, or throw psk::Error -- never
// crash).  Signatures are never salvaged: only skeletons are shipped.
#include <cstddef>
#include <cstdint>
#include <string>

#include "guard/salvage.h"
#include "guard/validate.h"
#include "sig/io.h"
#include "skeleton/io.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const psk::sig::Signature signature =
        psk::sig::signature_from_string(text);
    (void)psk::guard::validate_signature(signature).render();
  } catch (const psk::Error&) {
  }
  try {
    const psk::skeleton::Skeleton skeleton =
        psk::skeleton::skeleton_from_string(text);
    (void)psk::guard::validate_skeleton(skeleton).render();
  } catch (const psk::Error&) {
  }
  try {
    psk::guard::SalvageReport report;
    (void)psk::guard::salvage_skeleton_bytes(text, report);
    (void)report.render();
  } catch (const psk::Error&) {
  }
  return 0;
}
