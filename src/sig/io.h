// Text serialization of execution signatures.
//
// Signatures are stored as an indented line-per-node format; loops introduce
// nesting.  Doubles round-trip exactly.  (Skeleton files reuse this format;
// see skeleton/io.h.)
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "sig/signature.h"

namespace psk::sig {

void write_signature(std::ostream& out, const Signature& signature);
std::string signature_to_string(const Signature& signature);

/// Parses; throws FormatError on malformed input.
Signature read_signature(std::istream& in);
Signature signature_from_string(const std::string& text);

/// Parses the count of a "ranks N" line, shared by the signature and
/// skeleton readers and the skeleton salvor: util::parse_decimal with a cap
/// of 1 << 16 (the archive codec's).  Throws FormatError on anything else,
/// such as "-1", "0.5", "0x0" or "2garbage".
std::size_t parse_rank_count(const std::string& text);

void save_signature(const std::string& path, const Signature& signature);
Signature load_signature(const std::string& path);

}  // namespace psk::sig
