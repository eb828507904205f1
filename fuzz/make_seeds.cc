// Regenerates the checked-in fuzz seed corpus (fuzz/corpus/...).
//
// Run with the corpus root as the only argument:
//     fuzz_make_seeds fuzz/corpus
// Seeds are small, valid-by-construction archives, service frames and store
// entries plus a few deliberately damaged variants (truncations, a flipped
// checksum byte), so every parser branch the harnesses guard -- accept and
// each way of rejecting -- has at least one covering input before the
// fuzzer mutates anything.  Output is deterministic: regenerating must not
// dirty the checkout.
#include <cstdio>
#include <fstream>
#include <string>

#include "archive/archive.h"
#include "archive/codec.h"
#include "cache/blob_store.h"
#include "cache/cache.h"
#include "sig/signature.h"
#include "skeleton/skeleton.h"
#include "svc/frame.h"
#include "trace/event.h"
#include "util/error.h"

namespace {

using namespace psk;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  util::require(out.good(), "cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  util::require(out.good(), "cannot write " + path);
}

trace::Trace sample_trace() {
  trace::Trace t;
  t.app_name = "seed";
  for (int rank = 0; rank < 2; ++rank) {
    trace::RankTrace rt;
    rt.rank = rank;
    rt.total_time = 1.5;
    rt.final_compute = 0.25;
    trace::TraceEvent send;
    send.type = mpi::CallType::kSend;
    send.peer = 1 - rank;
    send.bytes = 4096;
    send.tag = 7;
    send.t_start = 0.1;
    send.t_end = 0.2;
    send.pre_compute = 0.1;
    trace::TraceEvent recv = send;
    recv.type = mpi::CallType::kRecv;
    rt.events = rank == 0 ? std::vector{send, recv} : std::vector{recv, send};
    t.ranks.push_back(rt);
  }
  return t;
}

sig::Signature sample_signature() {
  sig::Signature s;
  s.app_name = "seed";
  s.threshold = 0.05;
  s.compression_ratio = 2;
  for (int rank = 0; rank < 2; ++rank) {
    sig::RankSignature rs;
    rs.rank = rank;
    rs.total_time = 1.5;
    rs.final_compute = 0.25;
    sig::SigEvent event;
    event.type = rank == 0 ? mpi::CallType::kSend : mpi::CallType::kRecv;
    event.peer = 1 - rank;
    event.bytes = 4096;
    event.pre_compute = 0.1;
    event.mean_duration = 0.1;
    event.cluster_id = rank;
    rs.roots.push_back(sig::SigNode::loop(3, {sig::SigNode::leaf(event)}));
    s.ranks.push_back(rs);
  }
  return s;
}

skeleton::Skeleton sample_skeleton() {
  skeleton::Skeleton k;
  const sig::Signature s = sample_signature();
  k.app_name = s.app_name;
  k.scaling_factor = 10;
  k.intended_time = 0.15;
  k.min_good_time = 0.1;
  k.good = true;
  k.ranks = s.ranks;
  return k;
}

std::string framed(archive::PayloadKind kind, const std::string& payload) {
  std::string out;
  archive::write_frame(out, kind, 1, payload);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s corpus-root\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];

  // -------------------------------------------------------------- archive
  std::string payload;
  archive::encode(payload, sample_trace());
  const std::string trace_arch = framed(archive::PayloadKind::kTrace, payload);
  write_file(root + "/archive/trace.pskarch", trace_arch);
  write_file(root + "/archive/trace_truncated.pskarch",
             trace_arch.substr(0, trace_arch.size() - 9));
  std::string flipped = trace_arch;
  flipped[flipped.size() / 2] ^= 0x40;  // body bit flip: checksum must catch
  write_file(root + "/archive/trace_bitflip.pskarch", flipped);

  payload.clear();
  archive::encode(payload, sample_signature());
  write_file(root + "/archive/signature.pskarch",
             framed(archive::PayloadKind::kSignature, payload));

  payload.clear();
  archive::encode(payload, sample_skeleton());
  const std::string skel_arch =
      framed(archive::PayloadKind::kSkeleton, payload);
  write_file(root + "/archive/skeleton.pskarch", skel_arch);
  write_file(root + "/archive/header_only.pskarch", skel_arch.substr(0, 24));
  // A torn skeleton: the strict decoder must refuse it as truncated.
  write_file(root + "/archive/skeleton_truncated.pskarch",
             skel_arch.substr(0, skel_arch.size() * 3 / 4));
  write_file(root + "/archive/magic_only.pskarch", "PSKARCH1");

  // Regression seed: a well-framed trace payload whose rank declares a
  // hostile event count with no bytes behind it.  The decoder must reject
  // it at the count field (kTruncated), before any allocation.
  payload.clear();
  archive::put_string(payload, "hostile");
  archive::put_u32(payload, 1);                       // one rank
  archive::put_i32(payload, 0);                       // rank id
  archive::put_f64(payload, 1.0);                     // total_time
  archive::put_f64(payload, 0.0);                     // final_compute
  archive::put_u64(payload, std::uint64_t{1} << 31);  // events, all absent
  write_file(root + "/archive/trace_hostile_count.pskarch",
             framed(archive::PayloadKind::kTrace, payload));

  // ------------------------------------------------------------ svc frames
  svc::RequestHeader request;
  request.id = 1;
  request.op = svc::RequestOp::kPredict;
  // Validate byte 1, which the service reads as off: the retired wire value
  // must still decode and answer.
  request.validate = svc::ValidateMode::kSalvage;
  request.deadline_seconds = 2.0;
  request.seed = 7;
  request.repetitions = 2;
  request.scenario = "dedicated";
  request.archive_bytes = skel_arch;
  std::string body;
  svc::encode_request(body, request);
  std::string stream;
  svc::append_frame(stream, svc::FrameKind::kRequest, body);
  write_file(root + "/svc_frame/request.pskf", stream);
  write_file(root + "/svc_frame/request_truncated.pskf",
             stream.substr(0, stream.size() * 2 / 3));
  std::string frame_flipped = stream;
  frame_flipped[frame_flipped.size() / 2] ^= 0x20;
  write_file(root + "/svc_frame/request_bitflip.pskf", frame_flipped);

  // Server-side construction: a trace upload with a compression target.
  svc::RequestHeader construct;
  construct.id = 2;
  construct.op = svc::RequestOp::kConstruct;
  construct.seed = 7;
  construct.target_k = 25.0;
  construct.archive_bytes = trace_arch;
  body.clear();
  svc::encode_request(body, construct);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kRequest, body);
  write_file(root + "/svc_frame/construct_request.pskf", stream);

  // Hot-skeleton reuse: a predict naming a retained skeleton by content
  // hash, with no container embedded.
  svc::RequestHeader by_hash;
  by_hash.id = 3;
  by_hash.op = svc::RequestOp::kPredict;
  by_hash.seed = 7;
  by_hash.repetitions = 1;
  by_hash.skeleton_hash = archive::fingerprint64(skel_arch);
  by_hash.scenario = "dedicated";
  body.clear();
  svc::encode_request(body, by_hash);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kRequest, body);
  write_file(root + "/svc_frame/hash_predict_request.pskf", stream);

  body.clear();
  svc::RequestHeader ping;
  ping.op = svc::RequestOp::kPing;
  svc::encode_request(body, ping);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kRequest, body);
  svc::append_frame(stream, svc::FrameKind::kFlush, "");
  write_file(root + "/svc_frame/ping_then_flush.pskf", stream);

  svc::ResponseHeader response;
  response.id = 1;
  response.status = svc::StatusCode::kOk;
  response.values = {0.25, 0.5};
  body.clear();
  svc::encode_response(body, response);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kResponse, body);
  write_file(root + "/svc_frame/response.pskf", stream);

  // A construct response carrying the canonical skeleton bytes + hash, and
  // the explicit predict-by-hash miss.
  svc::ResponseHeader constructed;
  constructed.id = 2;
  constructed.status = svc::StatusCode::kOk;
  constructed.skeleton_hash = archive::fingerprint64(skel_arch);
  constructed.skeleton_bytes = skel_arch;
  body.clear();
  svc::encode_response(body, constructed);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kResponse, body);
  write_file(root + "/svc_frame/construct_response.pskf", stream);

  svc::ResponseHeader miss;
  miss.id = 3;
  miss.status = svc::StatusCode::kNotFound;
  miss.message = "skeleton not resident; re-upload the container";
  body.clear();
  svc::encode_response(body, miss);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kResponse, body);
  write_file(root + "/svc_frame/notfound_response.pskf", stream);

  // Health exchange (PR 10): the client-facing liveness probe and its
  // answer.  The probe is an empty body; the answer is the fixed-layout
  // snapshot clients decode for backoff decisions.
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kHealth, "");
  write_file(root + "/svc_frame/health_probe.pskf", stream);

  svc::HealthInfo health;
  health.uptime_seconds = 12.5;
  health.queue_depth = 3;
  health.queue_capacity = 64;
  health.inflight = 2;
  health.workers = 4;
  health.completed = 100;
  health.shed = 5;
  health.hung_detected = 1;
  health.workers_replaced = 1;
  body.clear();
  svc::encode_health(body, health);
  stream.clear();
  svc::append_frame(stream, svc::FrameKind::kHealth, body);
  write_file(root + "/svc_frame/health_answer.pskf", stream);
  write_file(root + "/svc_frame/health_truncated.pskf",
             stream.substr(0, stream.size() - 7));

  // Header declaring a ~4 GiB body: the parser must reject at the length
  // field, before buffering anything.
  std::string huge("PSKF");
  archive::put_u8(huge, svc::kProtocolVersion);
  archive::put_u8(huge, static_cast<std::uint8_t>(svc::FrameKind::kRequest));
  archive::put_u32(huge, 0xFFFFFFF0u);
  write_file(root + "/svc_frame/huge_declared_length.pskf", huge);
  write_file(root + "/svc_frame/bad_magic.pskf", "XSKF\x01\x01junk");
  write_file(root + "/svc_frame/garbage.pskf",
             std::string("\x00\xff\x7f pskf?", 8));
  write_file(root + "/svc_frame/empty.pskf", "");

  // ----------------------------------------------------- store entries
  // The blob stores' on-disk envelope (PSKB1): one result-cache entry
  // (keyed, echoing its key) and one skeleton entry (content-addressed,
  // empty key), the classic crash shapes (truncation at each structural
  // boundary), bit rot in the value, and checksum-consistent entries filed
  // under the wrong hash (the hash invariant must still reject them).
  cache::KeyBuilder key_builder("sweep-cell/1");
  key_builder.text("seed").text("cell");
  const cache::CacheKey key = std::move(key_builder).finish();
  const std::string cache_value = cache::encode_values({0.5, 2.25});
  write_file(root + "/store_entry/cache_valid.pskb",
             cache::encode_entry(key.hash, key.bytes, cache_value));
  write_file(root + "/store_entry/cache_wrong_hash.pskb",
             cache::encode_entry(key.hash ^ 1, key.bytes, cache_value));
  const std::uint64_t skel_hash = archive::fingerprint64(skel_arch);
  const std::string entry = cache::encode_entry(skel_hash, {}, skel_arch);
  write_file(root + "/store_entry/valid.pskb", entry);
  write_file(root + "/store_entry/magic_only.pskb", entry.substr(0, 5));
  write_file(root + "/store_entry/header_only.pskb", entry.substr(0, 21));
  write_file(root + "/store_entry/torn_payload.pskb",
             entry.substr(0, entry.size() * 2 / 3));
  write_file(root + "/store_entry/missing_checksum.pskb",
             entry.substr(0, entry.size() - 8));
  std::string rotted = entry;
  rotted[entry.size() / 2] ^= 0x01;
  write_file(root + "/store_entry/payload_bitrot.pskb", rotted);
  write_file(root + "/store_entry/wrong_hash.pskb",
             cache::encode_entry(skel_hash ^ 1, {}, skel_arch));
  write_file(root + "/store_entry/trailing_junk.pskb", entry + "x");
  write_file(root + "/store_entry/empty.pskb", "");

  std::printf("seed corpus written under %s\n", root.c_str());
  return 0;
}
