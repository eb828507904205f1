#include "archive/codec.h"

#include <algorithm>

namespace psk::archive {

namespace {

// Sanity caps applied while decoding, so corrupt length fields fail fast
// instead of attempting multi-gigabyte allocations.
constexpr std::uint64_t kMaxRanks = 1u << 16;
constexpr std::uint64_t kMaxEvents = 1ull << 32;
constexpr std::uint64_t kMaxParts = 1u << 20;
constexpr std::uint64_t kMaxNodes = 1ull << 28;
constexpr int kMaxNodeDepth = 256;

// Counts below the caps above can still be far larger than the remaining
// payload supports; clamp reserve() so the decode loop (which fails fast on
// a truncated cursor) is what bounds memory, not one up-front allocation.
constexpr std::size_t kReserveCap = 4096;

// Minimum encoded sizes of the variable-count units, used to validate every
// declared count against the bytes actually remaining (Cursor::check_count)
// *before* the decode loop runs: a hostile count field fails immediately
// with ErrorCode::kTruncated instead of grinding through a doomed decode.
// Conservative lower bounds -- a unit can only be larger.
constexpr std::size_t kMinPartBytes = 17;       // i32 + u64/f64 + bool + i32
constexpr std::size_t kMinRequestBytes = 4;     // u32
constexpr std::size_t kMinEventBytes = 77;      // fixed TraceEvent fields
constexpr std::size_t kMinTraceRankBytes = 28;  // i32 + 2*f64 + u64 count
constexpr std::size_t kMinSigRankBytes = 24;    // i32 + 2*f64 + u32 count
constexpr std::size_t kMinNodeBytes = 13;       // loop: u8 + u64 + u32

std::size_t clamped_reserve(std::uint64_t count) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(count, kReserveCap));
}

constexpr auto kLastCallType = static_cast<std::uint8_t>(mpi::CallType::kExchange);

mpi::CallType decode_call_type(Cursor& in) {
  const std::uint8_t raw = in.u8();
  if (raw > kLastCallType) {
    in.fail("invalid call type " + std::to_string(raw));
    return mpi::CallType::kSend;
  }
  return static_cast<mpi::CallType>(raw);
}

// ------------------------------------------------------------------ trace

void encode_event(std::string& out, const trace::TraceEvent& event) {
  put_u8(out, static_cast<std::uint8_t>(event.type));
  put_i32(out, event.peer);
  put_u64(out, event.bytes);
  put_i32(out, event.tag);
  put_f64(out, event.t_start);
  put_f64(out, event.t_end);
  put_f64(out, event.pre_compute);
  put_f64(out, event.interior_compute);
  put_f64(out, event.pre_mem_bytes);
  put_f64(out, event.interior_mem_bytes);
  put_u32(out, static_cast<std::uint32_t>(event.parts.size()));
  for (const mpi::PeerBytes& part : event.parts) {
    put_i32(out, part.peer);
    put_u64(out, part.bytes);
    put_bool(out, part.outgoing);
    put_i32(out, part.tag);
  }
  put_u32(out, event.request);
  put_u32(out, static_cast<std::uint32_t>(event.requests.size()));
  for (const std::uint32_t id : event.requests) put_u32(out, id);
}

trace::TraceEvent decode_event(Cursor& in) {
  trace::TraceEvent event;
  event.type = decode_call_type(in);
  event.peer = in.i32();
  event.bytes = in.u64();
  event.tag = in.i32();
  event.t_start = in.f64();
  event.t_end = in.f64();
  event.pre_compute = in.f64();
  event.interior_compute = in.f64();
  event.pre_mem_bytes = in.f64();
  event.interior_mem_bytes = in.f64();
  const std::uint32_t parts = in.u32();
  if (parts > kMaxParts) {
    in.fail("implausible part count");
    return event;
  }
  if (!in.check_count(parts, kMinPartBytes, "part")) return event;
  event.parts.reserve(clamped_reserve(parts));
  for (std::uint32_t i = 0; i < parts && in.ok(); ++i) {
    mpi::PeerBytes part;
    part.peer = in.i32();
    part.bytes = in.u64();
    part.outgoing = in.boolean();
    part.tag = in.i32();
    event.parts.push_back(part);
  }
  event.request = in.u32();
  const std::uint32_t requests = in.u32();
  if (requests > kMaxParts) {
    in.fail("implausible request count");
    return event;
  }
  if (!in.check_count(requests, kMinRequestBytes, "request")) return event;
  event.requests.reserve(clamped_reserve(requests));
  for (std::uint32_t i = 0; i < requests && in.ok(); ++i) {
    event.requests.push_back(in.u32());
  }
  return event;
}

// -------------------------------------------------------------- signature

void encode_sig_event(std::string& out, const sig::SigEvent& event) {
  put_u8(out, static_cast<std::uint8_t>(event.type));
  put_i32(out, event.peer);
  put_i32(out, event.tag);
  put_f64(out, event.bytes);
  put_f64(out, event.pre_compute);
  put_f64(out, event.pre_compute_m2);
  put_u64(out, event.observations);
  put_f64(out, event.interior_compute);
  put_f64(out, event.pre_mem_bytes);
  put_f64(out, event.interior_mem_bytes);
  put_f64(out, event.mean_duration);
  put_i32(out, event.cluster_id);
  put_u32(out, static_cast<std::uint32_t>(event.parts.size()));
  for (const sig::SigEvent::Part& part : event.parts) {
    put_i32(out, part.peer);
    put_f64(out, part.bytes);
    put_bool(out, part.outgoing);
    put_i32(out, part.tag);
  }
}

sig::SigEvent decode_sig_event(Cursor& in) {
  sig::SigEvent event;
  event.type = decode_call_type(in);
  event.peer = in.i32();
  event.tag = in.i32();
  event.bytes = in.f64();
  event.pre_compute = in.f64();
  event.pre_compute_m2 = in.f64();
  event.observations = in.u64();
  event.interior_compute = in.f64();
  event.pre_mem_bytes = in.f64();
  event.interior_mem_bytes = in.f64();
  event.mean_duration = in.f64();
  event.cluster_id = in.i32();
  const std::uint32_t parts = in.u32();
  if (parts > kMaxParts) {
    in.fail("implausible part count");
    return event;
  }
  if (!in.check_count(parts, kMinPartBytes, "part")) return event;
  event.parts.reserve(clamped_reserve(parts));
  for (std::uint32_t i = 0; i < parts && in.ok(); ++i) {
    sig::SigEvent::Part part;
    part.peer = in.i32();
    part.bytes = in.f64();
    part.outgoing = in.boolean();
    part.tag = in.i32();
    event.parts.push_back(part);
  }
  return event;
}

void encode_node(std::string& out, const sig::SigNode& node) {
  if (node.kind == sig::SigNode::Kind::kLoop) {
    put_u8(out, 1);
    put_u64(out, node.iterations);
    put_u32(out, static_cast<std::uint32_t>(node.body.size()));
    for (const sig::SigNode& child : node.body) encode_node(out, child);
    return;
  }
  put_u8(out, 0);
  encode_sig_event(out, node.event);
}

sig::SigNode decode_node(Cursor& in, int depth) {
  if (depth > kMaxNodeDepth) {
    in.fail("loop nesting too deep");
    return {};
  }
  const std::uint8_t kind = in.u8();
  if (kind == 0) {
    return sig::SigNode::leaf(decode_sig_event(in));
  }
  if (kind != 1) {
    in.fail("invalid node kind " + std::to_string(kind));
    return {};
  }
  const std::uint64_t iterations = in.u64();
  const std::uint32_t children = in.u32();
  if (children > kMaxNodes) {
    in.fail("implausible loop body size");
    return {};
  }
  if (!in.check_count(children, kMinNodeBytes, "loop body")) return {};
  sig::SigSeq body;
  body.reserve(clamped_reserve(children));
  for (std::uint32_t i = 0; i < children && in.ok(); ++i) {
    body.push_back(decode_node(in, depth + 1));
  }
  return sig::SigNode::loop(iterations, std::move(body));
}

void encode_rank_signature(std::string& out, const sig::RankSignature& rank) {
  put_i32(out, rank.rank);
  put_f64(out, rank.total_time);
  put_f64(out, rank.final_compute);
  put_u32(out, static_cast<std::uint32_t>(rank.roots.size()));
  for (const sig::SigNode& node : rank.roots) encode_node(out, node);
}

sig::RankSignature decode_rank_signature(Cursor& in) {
  sig::RankSignature rank;
  rank.rank = in.i32();
  rank.total_time = in.f64();
  rank.final_compute = in.f64();
  const std::uint32_t roots = in.u32();
  if (roots > kMaxNodes) {
    in.fail("implausible root count");
    return rank;
  }
  if (!in.check_count(roots, kMinNodeBytes, "root")) return rank;
  rank.roots.reserve(clamped_reserve(roots));
  for (std::uint32_t i = 0; i < roots && in.ok(); ++i) {
    rank.roots.push_back(decode_node(in, 0));
  }
  return rank;
}

}  // namespace

void encode(std::string& out, const trace::Trace& trace) {
  put_string(out, trace.app_name);
  put_u32(out, static_cast<std::uint32_t>(trace.ranks.size()));
  for (const trace::RankTrace& rank : trace.ranks) {
    put_i32(out, rank.rank);
    put_f64(out, rank.total_time);
    put_f64(out, rank.final_compute);
    put_u64(out, rank.events.size());
    for (const trace::TraceEvent& event : rank.events) {
      encode_event(out, event);
    }
  }
}

void encode(std::string& out, const sig::Signature& signature) {
  put_string(out, signature.app_name);
  put_f64(out, signature.threshold);
  put_f64(out, signature.compression_ratio);
  put_u32(out, static_cast<std::uint32_t>(signature.ranks.size()));
  for (const sig::RankSignature& rank : signature.ranks) {
    encode_rank_signature(out, rank);
  }
}

void encode(std::string& out, const skeleton::Skeleton& skeleton) {
  put_string(out, skeleton.app_name);
  put_f64(out, skeleton.scaling_factor);
  put_f64(out, skeleton.intended_time);
  put_f64(out, skeleton.min_good_time);
  put_bool(out, skeleton.good);
  put_u32(out, static_cast<std::uint32_t>(skeleton.ranks.size()));
  for (const sig::RankSignature& rank : skeleton.ranks) {
    encode_rank_signature(out, rank);
  }
}

void encode(std::string& out, const scenario::Scenario& scenario) {
  // The name participates on purpose: fault scenarios mix a hash of their
  // name into the measurement seed stream, so scenarios with identical
  // knobs but different names are different measurements.  The description
  // is cosmetic and excluded.
  put_string(out, scenario.name);
  put_u8(out, static_cast<std::uint8_t>(scenario.kind));
  put_i32(out, scenario.load_processes);
  put_f64(out, scenario.load_mem_bytes_per_work);
  put_f64(out, scenario.shaped_bandwidth_bps);
  put_i32(out, scenario.affected_node);
  put_f64(out, scenario.cpu_flutter);
  put_f64(out, scenario.cpu_flutter_period);
  put_f64(out, scenario.net_flutter);
  put_f64(out, scenario.net_flutter_period);
  put_u8(out, static_cast<std::uint8_t>(scenario.fault.kind));
  put_f64(out, scenario.fault.first_at);
  put_f64(out, scenario.fault.downtime);
  put_f64(out, scenario.fault.period);
  put_f64(out, scenario.fault.period_jitter);
  put_f64(out, scenario.fault.checkpoint_interval);
  put_f64(out, scenario.fault.checkpoint_cost);
  put_f64(out, scenario.fault.restart_cost);
}

void encode(std::string& out, const sim::ClusterConfig& cluster) {
  put_i32(out, cluster.nodes);
  put_i32(out, cluster.cores_per_node);
  put_f64(out, cluster.cpu_speed);
  put_f64(out, cluster.link_bandwidth_bps);
  put_f64(out, cluster.latency);
  put_f64(out, cluster.local_bandwidth_bps);
  put_f64(out, cluster.local_latency);
  put_f64(out, cluster.memory_bandwidth_bps);
  put_f64(out, cluster.cpu_jitter);
  put_f64(out, cluster.net_jitter);
  put_u64(out, cluster.seed);
  put_u8(out, static_cast<std::uint8_t>(cluster.topology.kind));
  put_i32(out, cluster.topology.fattree_down);
  put_i32(out, cluster.topology.fattree_up);
  put_i32(out, cluster.topology.dragonfly_groups);
  put_i32(out, cluster.topology.dragonfly_routers);
}

void encode(std::string& out, const mpi::MpiConfig& mpi) {
  put_u64(out, mpi.eager_threshold);
  put_f64(out, mpi.rendezvous_handshake_latencies);
  put_f64(out, mpi.per_call_overhead);
  put_f64(out, mpi.trace_overhead);
  put_f64(out, mpi.op_timeout);
  put_i32(out, mpi.op_max_retries);
  put_i32(out, mpi.large_world_threshold);
}

Result<trace::Trace> decode_trace(std::string_view payload,
                                  std::uint32_t version) {
  if (version != kTraceVersion) {
    return Error{ErrorCode::kBadVersion,
                 "trace payload version " + std::to_string(version)};
  }
  Cursor in(payload);
  trace::Trace trace;
  trace.app_name = in.string();
  const std::uint32_t ranks = in.u32();
  if (ranks > kMaxRanks) in.fail("implausible rank count");
  in.check_count(ranks, kMinTraceRankBytes, "rank");
  for (std::uint32_t r = 0; r < ranks && in.ok(); ++r) {
    trace::RankTrace rank;
    rank.rank = in.i32();
    rank.total_time = in.f64();
    rank.final_compute = in.f64();
    const std::uint64_t events = in.u64();
    if (events > kMaxEvents) {
      in.fail("implausible event count");
      break;
    }
    if (!in.check_count(events, kMinEventBytes, "event")) break;
    rank.events.reserve(clamped_reserve(events));
    for (std::uint64_t e = 0; e < events && in.ok(); ++e) {
      rank.events.push_back(decode_event(in));
    }
    trace.ranks.push_back(std::move(rank));
  }
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt, "trailing bytes after trace payload"};
  }
  return trace;
}

Result<sig::Signature> decode_signature(std::string_view payload,
                                        std::uint32_t version) {
  if (version != kSignatureVersion) {
    return Error{ErrorCode::kBadVersion,
                 "signature payload version " + std::to_string(version)};
  }
  Cursor in(payload);
  sig::Signature signature;
  signature.app_name = in.string();
  signature.threshold = in.f64();
  signature.compression_ratio = in.f64();
  const std::uint32_t ranks = in.u32();
  if (ranks > kMaxRanks) in.fail("implausible rank count");
  in.check_count(ranks, kMinSigRankBytes, "rank");
  for (std::uint32_t r = 0; r < ranks && in.ok(); ++r) {
    signature.ranks.push_back(decode_rank_signature(in));
  }
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt,
                 "trailing bytes after signature payload"};
  }
  return signature;
}

Result<skeleton::Skeleton> decode_skeleton_prefix(std::string_view payload,
                                                  std::uint32_t version,
                                                  PrefixStats& stats) {
  stats = PrefixStats{};
  if (version != kSkeletonVersion) {
    return Error{ErrorCode::kBadVersion,
                 "skeleton payload version " + std::to_string(version)};
  }
  Cursor in(payload);
  skeleton::Skeleton skeleton;
  skeleton.app_name = in.string();
  skeleton.scaling_factor = in.f64();
  skeleton.intended_time = in.f64();
  skeleton.min_good_time = in.f64();
  skeleton.good = in.boolean();
  const std::uint32_t ranks = in.u32();
  if (!in.ok() || ranks > kMaxRanks) {
    return Error{ErrorCode::kCorrupt, in.ok() ? "implausible rank count"
                                              : in.error().message};
  }
  stats.ranks_expected = ranks;
  stats.bytes_consumed = payload.size() - in.remaining();
  for (std::uint32_t r = 0; r < ranks; ++r) {
    sig::RankSignature rank = decode_rank_signature(in);
    if (!in.ok()) {
      stats.detail = in.error().message;
      break;
    }
    skeleton.ranks.push_back(std::move(rank));
    ++stats.ranks_kept;
    stats.bytes_consumed = payload.size() - in.remaining();
  }
  if (stats.detail.empty() && !in.at_end()) {
    stats.detail = "trailing bytes after payload";
  }
  return skeleton;
}

Result<skeleton::Skeleton> decode_skeleton(std::string_view payload,
                                           std::uint32_t version) {
  if (version != kSkeletonVersion) {
    return Error{ErrorCode::kBadVersion,
                 "skeleton payload version " + std::to_string(version)};
  }
  Cursor in(payload);
  skeleton::Skeleton skeleton;
  skeleton.app_name = in.string();
  skeleton.scaling_factor = in.f64();
  skeleton.intended_time = in.f64();
  skeleton.min_good_time = in.f64();
  skeleton.good = in.boolean();
  const std::uint32_t ranks = in.u32();
  if (ranks > kMaxRanks) in.fail("implausible rank count");
  in.check_count(ranks, kMinSigRankBytes, "rank");
  for (std::uint32_t r = 0; r < ranks && in.ok(); ++r) {
    skeleton.ranks.push_back(decode_rank_signature(in));
  }
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt,
                 "trailing bytes after skeleton payload"};
  }
  return skeleton;
}

}  // namespace psk::archive
