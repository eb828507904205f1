// Text serialization of execution traces.
//
// One document holds all ranks.  The format is line-oriented and
// human-greppable; doubles round-trip exactly (printed with %.17g).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/event.h"

namespace psk::trace {

void write_trace(std::ostream& out, const Trace& trace);
std::string trace_to_string(const Trace& trace);

/// Parses a trace document; throws FormatError on malformed input.
Trace read_trace(std::istream& in);
Trace trace_from_string(const std::string& text);

/// File convenience wrappers for the text format.  Compact files are
/// PSKARCH1 archives (archive/archive.h), whose load_trace falls back to
/// this one for text.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace psk::trace
