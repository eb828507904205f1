#include "util/stats.h"

#include <algorithm>
#include <cstdlib>

namespace psk::util {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  return s;
}

double percentile_sorted(std::span<const double> sorted_xs, double p) {
  if (sorted_xs.empty()) return 0.0;
  if (sorted_xs.size() == 1) return sorted_xs[0];
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(sorted_xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted_xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * frac;
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  if (denom == 0.0) return 0.0;
  return std::abs(a - b) / denom;
}

}  // namespace psk::util
