// Tiny command-line flag parser for psk, the examples and the bench programs.
//
// Supports "--name=value" and boolean "--name" forms; everything else is a
// positional argument.  Numeric getters validate the whole token and throw
// ConfigError on junk ("--jobs=abc"), and require_known() rejects typo'd
// flag names ("--job=4") with the list of flags the tool understands.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psk::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;

  /// Numeric getters parse the full flag value; partial or unparsable
  /// tokens ("abc", "4x", "") throw ConfigError naming the flag, rather
  /// than silently yielding 0 as raw strtod/strtoll would.
  double get_double(const std::string& name, double def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Throws ConfigError if any parsed --flag is not in `known`, listing
  /// the valid flags so a typo ("--resum") fails loudly instead of being
  /// ignored.  Call once after constructing, with every flag the tool
  /// consults.
  void require_known(const std::vector<std::string>& known) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Parses a comma-separated list of strictly positive numbers ("10,5,0.5").
/// Throws ConfigError naming `what` (e.g. "--sizes") on an empty list,
/// empty element, unparsable or trailing text, or a non-positive value --
/// instead of the uncatchable std::stod abort a raw conversion would give.
std::vector<double> parse_positive_doubles(const std::string& text,
                                           const std::string& what);

}  // namespace psk::util
