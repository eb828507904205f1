#include "util/format.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace psk::util {

std::string fixed(double value, int decimals) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  return buf.data();
}

std::string human_bytes(std::uint64_t bytes) {
  constexpr std::array<const char*, 5> units = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < units.size()) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return std::to_string(bytes) + " B";
  return fixed(value, value < 10 ? 2 : 1) + " " + units[unit];
}

std::string human_seconds(double seconds) {
  if (seconds < 0) return "-" + human_seconds(-seconds);
  if (seconds < 1e-3) return fixed(seconds * 1e6, 1) + " us";
  if (seconds < 1.0) return fixed(seconds * 1e3, 2) + " ms";
  if (seconds < 120.0) return fixed(seconds, 2) + " s";
  const auto mins = static_cast<long>(seconds / 60.0);
  const double rem = seconds - static_cast<double>(mins) * 60.0;
  return std::to_string(mins) + "m" + fixed(rem, 0) + "s";
}

std::string percent(double fraction) { return fixed(fraction * 100.0, 1) + "%"; }

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

std::string indexed(const std::string& name, std::size_t i) {
  return name + "[" + std::to_string(i) + "]";
}

}  // namespace psk::util
