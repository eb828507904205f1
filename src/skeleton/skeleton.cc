#include "skeleton/skeleton.h"

#include <cmath>
#include <memory>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace psk::skeleton {

namespace {

using sig::SigEvent;
using sig::SigNode;
using sig::SigSeq;

/// Walks every loop in the sequence; for loops whose *cumulative* share of
/// the run (body time x own iterations x all enclosing iteration counts)
/// reaches `dominance_fraction`, tracks the smallest body time.  The
/// multiplier matters for nests: CG's inner 25-iteration loop covers ~95%
/// of the run only through its 75-iteration outer loop.
void scan_dominant(const SigSeq& seq, double rank_total, double multiplier,
                   double dominance_fraction, double& best_body_time,
                   double& best_coverage) {
  for (const SigNode& node : seq) {
    if (node.kind != SigNode::Kind::kLoop) continue;
    const double body_time = sig::expanded_time(node.body);
    const double loop_time =
        body_time * static_cast<double>(node.iterations) * multiplier;
    const double coverage = rank_total > 0 ? loop_time / rank_total : 0;
    if (coverage >= dominance_fraction && body_time < best_body_time) {
      best_body_time = body_time;
      best_coverage = coverage;
    }
    scan_dominant(node.body, rank_total,
                  multiplier * static_cast<double>(node.iterations),
                  dominance_fraction, best_body_time, best_coverage);
  }
}

}  // namespace

GoodSkeletonEstimate estimate_good_skeleton(
    const sig::Signature& signature, const GoodSkeletonOptions& options) {
  GoodSkeletonEstimate estimate;
  // Every rank must retain a full dominant iteration, so the requirement is
  // the strictest (largest) per-rank minimum.
  for (const sig::RankSignature& rank : signature.ranks) {
    double best_body_time = std::numeric_limits<double>::infinity();
    double best_coverage = 0;
    scan_dominant(rank.roots, rank.total_time, /*multiplier=*/1.0,
                  options.dominance_fraction, best_body_time, best_coverage);
    if (best_body_time == std::numeric_limits<double>::infinity()) {
      // No dominant loop: only the whole run reproduces the behaviour.
      best_body_time = rank.total_time;
      best_coverage = 1.0;
    }
    if (best_body_time > estimate.min_good_time) {
      estimate.min_good_time = best_body_time;
      estimate.dominant_coverage = best_coverage;
    }
  }
  return estimate;
}

Skeleton build_skeleton(const sig::Signature& signature, double k,
                        const ScaleOptions& options) {
  util::require(std::isfinite(k) && k >= 1.0,
                "build_skeleton: K must be finite and >= 1");
  util::require(!signature.ranks.empty(), "build_skeleton: empty signature");

  Skeleton skeleton;
  skeleton.app_name = signature.app_name;
  skeleton.scaling_factor = k;
  skeleton.intended_time = signature.elapsed() / k;

  for (const sig::RankSignature& rank : signature.ranks) {
    sig::RankSignature scaled;
    scaled.rank = rank.rank;
    scaled.roots = scale_sequence(rank.roots, ScaleSpec{k, options});
    scaled.total_time = rank.total_time / k;
    scaled.final_compute = rank.final_compute / k;
    skeleton.ranks.push_back(std::move(scaled));
  }

  const GoodSkeletonEstimate estimate = estimate_good_skeleton(signature);
  skeleton.min_good_time = estimate.min_good_time;
  skeleton.good = skeleton.intended_time >= estimate.min_good_time;
  return skeleton;
}

namespace {

std::uint64_t round_bytes(double bytes) {
  return bytes <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(bytes));
}

/// Per-rank replay state: the options plus the sampling stream.
struct ReplayContext {
  ReplayOptions options;
  util::Rng rng;

  double compute_duration(const SigEvent& event) {
    if (!options.sample_compute_distribution || event.observations < 2) {
      return event.pre_compute;
    }
    const double sample =
        rng.normal(event.pre_compute, event.pre_compute_stddev());
    return sample > 0 ? sample : 0;
  }
};

sim::Task replay_event(mpi::Comm& comm, const SigEvent& event,
                       ReplayContext& context) {
  const double pre = context.compute_duration(event);
  if (pre > 0) co_await comm.compute(pre, round_bytes(event.pre_mem_bytes));
  switch (event.type) {
    case mpi::CallType::kSend:
      co_await comm.send(event.peer, round_bytes(event.bytes), event.tag);
      break;
    case mpi::CallType::kRecv:
      co_await comm.recv(event.peer, round_bytes(event.bytes), event.tag);
      break;
    case mpi::CallType::kSendrecv: {
      // parts[0] is the outgoing half, parts[1] the incoming one.
      util::require(event.parts.size() == 2, "skeleton: bad Sendrecv parts");
      co_await comm.sendrecv(event.parts[0].peer,
                             round_bytes(event.parts[0].bytes),
                             event.parts[1].peer,
                             round_bytes(event.parts[1].bytes), event.tag);
      break;
    }
    case mpi::CallType::kExchange: {
      std::vector<mpi::Request> requests;
      requests.reserve(event.parts.size());
      for (const SigEvent::Part& part : event.parts) {
        if (!part.outgoing) {
          requests.push_back(
              comm.irecv(part.peer, round_bytes(part.bytes), part.tag));
        }
      }
      if (event.interior_compute > 0) {
        co_await comm.compute(event.interior_compute,
                              round_bytes(event.interior_mem_bytes));
      }
      for (const SigEvent::Part& part : event.parts) {
        if (part.outgoing) {
          requests.push_back(
              comm.isend(part.peer, round_bytes(part.bytes), part.tag));
        }
      }
      co_await comm.waitall(std::move(requests));
      break;
    }
    case mpi::CallType::kBarrier:
      co_await comm.barrier();
      break;
    case mpi::CallType::kBcast:
      co_await comm.bcast(event.peer, round_bytes(event.bytes));
      break;
    case mpi::CallType::kReduce:
      co_await comm.reduce(event.peer, round_bytes(event.bytes));
      break;
    case mpi::CallType::kAllreduce:
      co_await comm.allreduce(round_bytes(event.bytes));
      break;
    case mpi::CallType::kAllgather:
      co_await comm.allgather(round_bytes(event.bytes));
      break;
    case mpi::CallType::kGather:
      co_await comm.gather(event.peer, round_bytes(event.bytes));
      break;
    case mpi::CallType::kScatter:
      co_await comm.scatter(event.peer, round_bytes(event.bytes));
      break;
    case mpi::CallType::kScan:
      co_await comm.scan(round_bytes(event.bytes));
      break;
    case mpi::CallType::kAlltoall:
      co_await comm.alltoall(round_bytes(event.bytes));
      break;
    case mpi::CallType::kAlltoallv: {
      std::vector<mpi::Bytes> counts(static_cast<std::size_t>(comm.size()),
                                     0);
      for (const SigEvent::Part& part : event.parts) {
        if (part.peer >= 0 && part.peer < comm.size()) {
          counts[static_cast<std::size_t>(part.peer)] =
              round_bytes(part.bytes);
        }
      }
      co_await comm.alltoallv(std::move(counts));
      break;
    }
    default:
      throw ConfigError("skeleton: cannot replay event type " +
                        mpi::call_type_name(event.type));
  }
}

sim::Task replay_seq(mpi::Comm& comm, const SigSeq& seq,
                     ReplayContext& context) {
  for (const SigNode& node : seq) {
    if (node.kind == SigNode::Kind::kLeaf) {
      co_await replay_event(comm, node.event, context);
    } else {
      for (std::uint64_t i = 0; i < node.iterations; ++i) {
        co_await replay_seq(comm, node.body, context);
      }
    }
  }
}

sim::Task replay_rank(mpi::Comm& comm, const sig::RankSignature& rank,
                      std::shared_ptr<ReplayContext> context) {
  co_await replay_seq(comm, rank.roots, *context);
  if (rank.final_compute > 0) co_await comm.compute(rank.final_compute);
}

}  // namespace

mpi::RankMain skeleton_program(const Skeleton& skeleton,
                               const ReplayOptions& options) {
  // The returned lambda holds a copy so callers may drop the Skeleton.
  const auto shared = std::make_shared<const Skeleton>(skeleton);
  return [shared, options](mpi::Comm& comm) -> sim::Task {
    util::require(comm.size() == shared->rank_count(),
                  "skeleton_program: world size does not match skeleton");
    auto context = std::make_shared<ReplayContext>();
    context->options = options;
    // All ranks share one sampling stream: SPMD ranks visit their compute
    // sites in near-lockstep, so identical streams yield *correlated*
    // durations ("iteration i is heavy for everyone"), which is how real
    // workload variation behaves.  Independent streams would make every
    // synchronization wait for the unluckiest rank and systematically
    // inflate the replay.
    context->rng.reseed(options.sample_seed);
    return replay_rank(comm,
                       shared->ranks[static_cast<std::size_t>(comm.rank())],
                       std::move(context));
  };
}

sim::Time run_skeleton(mpi::World& world, const Skeleton& skeleton,
                       const ReplayOptions& options) {
  world.launch(skeleton_program(skeleton, options));
  return world.run();
}

double predict_app_time(const Calibration& calibration,
                        double skeleton_time_in_scenario) {
  return calibration.measured_scaling_ratio() * skeleton_time_in_scenario;
}

double prediction_error_percent(double predicted, double actual) {
  util::require(actual > 0, "prediction_error_percent: actual must be > 0");
  return std::abs(predicted - actual) / actual * 100.0;
}

}  // namespace psk::skeleton
