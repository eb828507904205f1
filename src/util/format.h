// Plain-text formatting helpers for reports, tables and trace dumps.
#pragma once

#include <cstdint>
#include <string>

namespace psk::util {

/// Fixed-point decimal, e.g. fixed(3.14159, 2) == "3.14".
std::string fixed(double value, int decimals);

/// Human-readable byte count: "512 B", "1.5 KB", "2.3 MB".
std::string human_bytes(std::uint64_t bytes);

/// Human-readable duration in seconds: "950 us", "1.25 s", "12m34s".
std::string human_seconds(double seconds);

/// Percentage with one decimal: "42.0%".
std::string percent(double fraction);

/// Left/right padding to a fixed width (truncates when too long).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// "name[i]" style indexed label.
std::string indexed(const std::string& name, std::size_t i);

}  // namespace psk::util
