// Streaming and batch statistics helpers used by the experiment harnesses.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace psk::util {

/// Welford streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Population min / max / mean summary of a sequence.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::span<const double> xs);

/// p-th percentile (0..100) by linear interpolation over an
/// ascending-sorted sample.  Callers querying several percentiles of one
/// sample (p50/p95/p99) should sort once and use this; the by-value
/// overload below re-sorts on every call.
double percentile_sorted(std::span<const double> sorted_xs, double p);

/// p-th percentile (0..100) by linear interpolation; xs need not be sorted
/// (sorts its copy, then delegates to percentile_sorted).
double percentile(std::vector<double> xs, double p);

/// Relative difference |a-b| / max(|a|,|b|); 0 when both are 0.
double rel_diff(double a, double b);

}  // namespace psk::util
