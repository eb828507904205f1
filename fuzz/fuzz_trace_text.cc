// libFuzzer harness for the text trace parser.
//
// The parser's contract is: any byte string either parses into a Trace or
// throws psk::Error (FormatError for malformed documents).  Crashes, hangs,
// unbounded allocations and any *other* exception type are findings.  A
// document that does parse is pushed through guard::validate_trace too, so
// the semantic validator is fuzzed with structurally valid inputs for free.
// (Traces are never salvaged: only skeletons are shipped and can arrive
// torn; see guard/salvage.h.)
#include <cstddef>
#include <cstdint>
#include <string>

#include "guard/validate.h"
#include "trace/io.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const psk::trace::Trace trace = psk::trace::trace_from_string(text);
    const psk::guard::ValidationReport report =
        psk::guard::validate_trace(trace);
    (void)report.render();  // rendering must not throw either
  } catch (const psk::Error&) {
    // Graceful rejection: the documented behaviour for bad input.
  }
  return 0;
}
