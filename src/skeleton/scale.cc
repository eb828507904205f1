#include "skeleton/scale.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"

namespace psk::skeleton {

namespace {

using sig::SigEvent;
using sig::SigNode;
using sig::SigSeq;

constexpr double kUnityTolerance = 1.0 + 1e-9;

/// Flattens a loop body into (leaf, executions-per-body-iteration) pairs in
/// first-appearance order, multiplying out nested loop counts.
void flatten_counts(const SigSeq& seq, std::uint64_t multiplier,
                    std::vector<std::pair<SigEvent, std::uint64_t>>& out) {
  for (const SigNode& node : seq) {
    if (node.kind == SigNode::Kind::kLeaf) {
      out.emplace_back(node.event, multiplier);
    } else {
      flatten_counts(node.body, multiplier * node.iterations, out);
    }
  }
}

/// Steps 2+3 applied to `r` unrolled iterations of `body`: per distinct
/// operation position, `full = total/K` complete occurrences survive and
/// `total%K` occurrences are parameter-scaled by K.
void emit_remainder(const SigSeq& body, std::uint64_t r, double k,
                    std::uint64_t k_int, const ScaleOptions& options,
                    SigSeq& out) {
  std::vector<std::pair<SigEvent, std::uint64_t>> flat;
  flatten_counts(body, r, flat);
  for (auto& [event, total] : flat) {
    const std::uint64_t full = total / k_int;
    const std::uint64_t leftover = total % k_int;
    if (full == 1) {
      out.push_back(SigNode::leaf(event));
    } else if (full > 1) {
      SigSeq one;
      one.push_back(SigNode::leaf(event));
      out.push_back(SigNode::loop(full, std::move(one)));
    }
    if (leftover > 0) {
      const SigEvent scaled = scale_event(event, ScaleSpec{k, options});
      if (leftover == 1) {
        out.push_back(SigNode::leaf(scaled));
      } else {
        SigSeq one;
        one.push_back(SigNode::leaf(scaled));
        out.push_back(SigNode::loop(leftover, std::move(one)));
      }
    }
  }
}

}  // namespace

SigEvent scale_event(const SigEvent& event, const ScaleSpec& spec) {
  const double factor = spec.factor;
  const ScaleOptions& options = spec.options;
  util::require(factor >= 1.0, "scale_event: factor must be >= 1");
  SigEvent scaled = event;
  scaled.pre_compute /= factor;
  scaled.pre_compute_m2 /= factor * factor;  // Var(x/K) = Var(x)/K^2
  scaled.interior_compute /= factor;
  scaled.pre_mem_bytes /= factor;       // intensity (bytes/work) preserved
  scaled.interior_mem_bytes /= factor;
  scaled.mean_duration /= factor;
  if (options.scale_message_bytes) {
    scaled.bytes /= factor;
    for (SigEvent::Part& part : scaled.parts) part.bytes /= factor;
  }
  return scaled;
}

sig::SigSeq scale_sequence(const SigSeq& seq, const ScaleSpec& spec) {
  const double k = spec.factor;
  const ScaleOptions& options = spec.options;
  util::require(k >= 1.0, "scale_sequence: K must be >= 1");
  SigSeq out;
  if (k <= kUnityTolerance) {
    out = seq;
    return out;
  }
  const std::uint64_t k_int =
      std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::llround(k)));

  for (const SigNode& node : seq) {
    if (node.kind == SigNode::Kind::kLeaf) {
      // Operation outside any loop: parameter scaling is the only option.
      out.push_back(
          SigNode::leaf(scale_event(node.event, ScaleSpec{k, options})));
      continue;
    }
    const std::uint64_t n = node.iterations;
    if (static_cast<double>(n) >= k) {
      // Step 1: full iterations survive.  The body is NOT scaled -- reducing
      // the count already divides everything inside by K.
      const std::uint64_t q = n / k_int;
      const std::uint64_t r = n % k_int;
      if (q > 0) {
        out.push_back(SigNode::loop(q, node.body));
      }
      if (r > 0 && options.unroll_remainders) {
        emit_remainder(node.body, r, k, k_int, options, out);
      }
    } else {
      // Step 4: count collapses to one iteration; the residual factor
      // distributes into the body.
      SigSeq scaled_body = scale_sequence(
          node.body, ScaleSpec{k / static_cast<double>(n), options});
      out.push_back(SigNode::loop(1, std::move(scaled_body)));
    }
  }
  return out;
}

}  // namespace psk::skeleton
