// Signature scaling: the heart of skeleton construction (paper section 3.3).
//
// Given an execution signature and a scaling factor K:
//   1. loop iteration counts are divided by K (one full-fidelity iteration
//      of a loop survives whenever its count allows it);
//   2. remainder iterations are unrolled into the "unreduced part", where
//      groups of K occurrences of an identical operation collapse to one
//      full occurrence;
//   3. the operations still left over are scaled down *by parameter*: the
//      duration of compute phases and the byte counts of messages shrink by
//      K -- the paper's "last resort", inaccurate because message latency
//      does not scale with byte count;
//   4. a loop whose count is smaller than (the remaining) K keeps one
//      iteration whose body is scaled by the residual factor K/count --
//      such a skeleton no longer contains a full iteration of that loop,
//      which is exactly the condition the shortest-"good"-skeleton warning
//      detects.
#pragma once

#include "sig/signature.h"

namespace psk::skeleton {

struct ScaleOptions {
  /// Disables step 3's byte scaling: leftover communication operations keep
  /// their full byte counts (used by the latency-scaling ablation).
  bool scale_message_bytes = true;
  /// Disables remainder grouping: remainder iterations are dropped instead
  /// of unrolled+grouped (used by ablation only; not paper behaviour).
  bool unroll_remainders = true;
};

/// The full specification of one scaling operation: the factor K plus the
/// behaviour knobs.
struct ScaleSpec {
  /// Scaling factor K (>= 1).
  double factor = 1.0;
  ScaleOptions options;
};

/// Scales one rank's node sequence by spec.factor (>= 1); factor = 1
/// returns a copy.
sig::SigSeq scale_sequence(const sig::SigSeq& seq, const ScaleSpec& spec);

/// Parameter-scales a single event (compute and bytes divided by factor).
sig::SigEvent scale_event(const sig::SigEvent& event, const ScaleSpec& spec);

}  // namespace psk::skeleton
