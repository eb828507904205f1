// Tests for the pskd prediction service (psk::svc): frame parsing and
// request/response codecs, deterministic admission control (identical
// admit/shed decisions and byte-identical responses at any worker count),
// deadline expiry without partial results, cooperative cancellation,
// salvage-fallback degradation, live-mode concurrency, and the pskd binary
// end to end over a pipe.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "cache/blob_store.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "svc/chaos.h"
#include "svc/frame.h"
#include "svc/reservoir.h"
#include "svc/service.h"
#include "svc/session.h"
#include "svc/status.h"
#include "svc/store.h"
#include "svc/transport.h"
#include "util/error.h"

namespace psk {
namespace {

skeleton::Skeleton sample_skeleton() {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  return framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
}

/// PSKARCH1 container bytes of the shared sample skeleton (built once; the
/// trace+compress pipeline is the slow part of these tests).
const std::string& skeleton_upload() {
  static const std::string bytes = [] {
    std::string payload;
    archive::encode(payload, sample_skeleton());
    std::string out;
    archive::write_frame(out, archive::PayloadKind::kSkeleton,
                         archive::kSkeletonVersion, payload);
    return out;
  }();
  return bytes;
}

/// PSKARCH1 trace container of the shared sample app, for kConstruct
/// uploads (built once, like skeleton_upload()).
const std::string& trace_upload() {
  static const std::string bytes = [] {
    core::SkeletonFramework framework;
    const trace::Trace trace = framework.record(
        apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
    std::string payload;
    archive::encode(payload, trace);
    std::string out;
    archive::write_frame(out, archive::PayloadKind::kTrace,
                         archive::kTraceVersion, payload);
    return out;
  }();
  return bytes;
}

svc::RequestHeader predict_request(std::uint32_t id,
                                   std::uint32_t repetitions = 1) {
  svc::RequestHeader request;
  request.id = id;
  request.op = svc::RequestOp::kPredict;
  request.seed = 7;
  request.repetitions = repetitions;
  request.scenario = "dedicated";
  request.archive_bytes = skeleton_upload();
  return request;
}

/// Predict-by-hash: names a retained skeleton instead of embedding one.
svc::RequestHeader hash_request(std::uint32_t id, std::uint64_t hash) {
  svc::RequestHeader request = predict_request(id);
  request.archive_bytes.clear();
  request.skeleton_hash = hash;
  return request;
}

svc::RequestHeader construct_request(std::uint32_t id,
                                     double target_k = 10.0) {
  svc::RequestHeader request;
  request.id = id;
  request.op = svc::RequestOp::kConstruct;
  request.seed = 7;
  request.target_k = target_k;
  request.archive_bytes = trace_upload();
  return request;
}

std::string encoded(const svc::ResponseHeader& response) {
  std::string body;
  svc::encode_response(body, response);
  return body;
}

/// A fresh scratch directory name for disk-tier store tests.
std::string store_dir(const std::string& tag) {
  static int sequence = 0;
  return testing::TempDir() + "/svc_store_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(sequence++);
}

/// A memory-only store with the given caps.
svc::StoreOptions memory_store(std::size_t entries, std::size_t bytes) {
  svc::StoreOptions options;
  options.capacity_entries = entries;
  options.capacity_bytes = bytes;
  return options;
}

// ------------------------------------------------------------------ frame

TEST(SvcFrame, RoundTripAndIncrementalParse) {
  std::string stream;
  svc::append_frame(stream, svc::FrameKind::kRequest, "hello");
  svc::append_frame(stream, svc::FrameKind::kFlush, "");

  svc::Frame frame;
  std::size_t consumed = 0;
  archive::Error error;
  // Every proper prefix must ask for more bytes, never misparse.
  const std::size_t first = 4 + 1 + 1 + 4 + 5 + 8;
  for (std::size_t n = 0; n < first; ++n) {
    EXPECT_EQ(svc::try_parse_frame(std::string_view(stream).substr(0, n),
                                   svc::kMaxFrameBytes, frame, consumed,
                                   error),
              svc::ParseProgress::kNeedMore)
        << n;
  }
  ASSERT_EQ(svc::try_parse_frame(stream, svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kFrame);
  EXPECT_EQ(frame.kind, svc::FrameKind::kRequest);
  EXPECT_EQ(frame.body, "hello");
  EXPECT_EQ(consumed, first);

  const std::string rest = stream.substr(consumed);
  ASSERT_EQ(svc::try_parse_frame(rest, svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kFrame);
  EXPECT_EQ(frame.kind, svc::FrameKind::kFlush);
  EXPECT_TRUE(frame.body.empty());
  EXPECT_EQ(consumed, rest.size());
}

TEST(SvcFrame, HostileDeclaredLengthRejectedBeforeAllocation) {
  // Header declaring a ~4 GiB body with no body present: must fail at the
  // length field (kTruncated), not try to buffer 4 GiB.
  std::string header("PSKF");
  archive::put_u8(header, svc::kProtocolVersion);
  archive::put_u8(header, static_cast<std::uint8_t>(svc::FrameKind::kRequest));
  archive::put_u32(header, 0xFFFFFFF0u);
  svc::Frame frame;
  std::size_t consumed = 0;
  archive::Error error;
  EXPECT_EQ(svc::try_parse_frame(header, svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kBad);
  EXPECT_EQ(error.code, archive::ErrorCode::kTruncated);
}

TEST(SvcFrame, BadStreamsAreRejectedAtTheFirstWrongByte) {
  svc::Frame frame;
  std::size_t consumed = 0;
  archive::Error error;
  // Wrong magic fails on the very first byte, before any length arrives.
  EXPECT_EQ(svc::try_parse_frame("X", svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kBad);
  EXPECT_EQ(error.code, archive::ErrorCode::kBadMagic);

  std::string bad_version("PSKF");
  archive::put_u8(bad_version, 99);
  EXPECT_EQ(svc::try_parse_frame(bad_version, svc::kMaxFrameBytes, frame,
                                 consumed, error),
            svc::ParseProgress::kBad);
  EXPECT_EQ(error.code, archive::ErrorCode::kBadVersion);

  std::string flipped;
  svc::append_frame(flipped, svc::FrameKind::kRequest, "body");
  flipped[12] ^= 1;  // corrupt the body -> checksum mismatch
  EXPECT_EQ(svc::try_parse_frame(flipped, svc::kMaxFrameBytes, frame,
                                 consumed, error),
            svc::ParseProgress::kBad);
  EXPECT_EQ(error.code, archive::ErrorCode::kCorrupt);
}

TEST(SvcFrame, RequestCodecRoundTrips) {
  svc::RequestHeader request;
  request.id = 42;
  request.op = svc::RequestOp::kPredict;
  request.validate = svc::ValidateMode::kSalvage;
  request.deadline_seconds = 2.5;
  request.seed = 99;
  request.repetitions = 3;
  request.scenario = "cpu-one-node";
  request.archive_bytes = "PSKARCH1 pretend payload";
  std::string body;
  svc::encode_request(body, request);
  archive::Result<svc::RequestHeader> decoded = svc::decode_request(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().validate, svc::ValidateMode::kSalvage);
  EXPECT_EQ(decoded.value().deadline_seconds, 2.5);
  EXPECT_EQ(decoded.value().seed, 99u);
  EXPECT_EQ(decoded.value().repetitions, 3u);
  EXPECT_EQ(decoded.value().scenario, "cpu-one-node");
  EXPECT_EQ(decoded.value().archive_bytes, request.archive_bytes);
}

TEST(SvcFrame, RequestCodecRejectsHostileFields) {
  svc::RequestHeader request = predict_request(1);
  request.repetitions = svc::kMaxRepetitions + 1;
  std::string body;
  svc::encode_request(body, request);
  EXPECT_FALSE(svc::decode_request(body).ok());

  request = predict_request(1);
  request.deadline_seconds = -1.0;
  body.clear();
  svc::encode_request(body, request);
  EXPECT_FALSE(svc::decode_request(body).ok());

  EXPECT_FALSE(svc::decode_request("").ok());
}

TEST(SvcFrame, ResponseCodecRoundTripsAndRejectsTrailingBytes) {
  svc::ResponseHeader response;
  response.id = 7;
  response.status = svc::StatusCode::kOk;
  response.degraded = true;
  response.message = "salvaged";
  response.values = {0.25, 0.5};
  std::string body = encoded(response);
  archive::Result<svc::ResponseHeader> decoded = svc::decode_response(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().values, response.values);
  EXPECT_TRUE(decoded.value().degraded);
  body.push_back('x');
  EXPECT_FALSE(svc::decode_response(body).ok());
}

TEST(SvcFrame, ValidateModeParsesAndListsValidOnes) {
  EXPECT_EQ(svc::parse_validate_mode("strict"), svc::ValidateMode::kStrict);
  EXPECT_EQ(svc::parse_validate_mode("salvage"), svc::ValidateMode::kSalvage);
  EXPECT_EQ(svc::parse_validate_mode("off"), svc::ValidateMode::kOff);
  try {
    svc::parse_validate_mode("bogus");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("strict|salvage|off"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
}

TEST(SvcFrame, OversizedBodyIsRejectedNotTruncated) {
  // The u32 length field caps an encodable body at 2^32-1 bytes.  The
  // boundary is tested through check_frame_body_size so nothing has to
  // allocate 4 GiB; append_frame delegates to it before writing.
  EXPECT_TRUE(svc::check_frame_body_size(0).ok());
  EXPECT_TRUE(svc::check_frame_body_size(svc::kMaxEncodableBody).ok());
  static_assert(sizeof(std::size_t) > 4,
                "the oversized-body boundary needs 64-bit sizes");
  const archive::Status status =
      svc::check_frame_body_size(svc::kMaxEncodableBody + 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, archive::ErrorCode::kTruncated);
  EXPECT_NE(status.error().render().find("u32 length field"),
            std::string::npos);

  std::string out = "prefix";
  EXPECT_TRUE(svc::append_frame(out, svc::FrameKind::kRequest, "ok").ok());
  EXPECT_EQ(out.substr(0, 6), "prefix");  // appends, never clobbers
}

TEST(SvcFrame, RequestCodecRoundTripsConstructAndHashFields) {
  svc::RequestHeader construct;
  construct.id = 11;
  construct.op = svc::RequestOp::kConstruct;
  construct.seed = 3;
  construct.target_k = 25.0;
  construct.archive_bytes = "PSKARCH1 pretend trace";
  std::string body;
  svc::encode_request(body, construct);
  archive::Result<svc::RequestHeader> decoded = svc::decode_request(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_EQ(decoded.value().op, svc::RequestOp::kConstruct);
  EXPECT_DOUBLE_EQ(decoded.value().target_k, 25.0);
  EXPECT_EQ(decoded.value().archive_bytes, construct.archive_bytes);

  const svc::RequestHeader by_hash = hash_request(12, 0xfeedfacecafef00dull);
  body.clear();
  svc::encode_request(body, by_hash);
  decoded = svc::decode_request(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_EQ(decoded.value().skeleton_hash, 0xfeedfacecafef00dull);
  EXPECT_TRUE(decoded.value().archive_bytes.empty());
}

TEST(SvcFrame, RequestCodecRejectsAmbiguousOrHostileHashFields) {
  // A hash plus an embedded container is ambiguous.
  svc::RequestHeader request = predict_request(1);
  request.skeleton_hash = 42;
  std::string body;
  svc::encode_request(body, request);
  EXPECT_FALSE(svc::decode_request(body).ok());

  // Only predicts may name a skeleton by hash.
  request = hash_request(2, 42);
  request.op = svc::RequestOp::kConstruct;
  body.clear();
  svc::encode_request(body, request);
  EXPECT_FALSE(svc::decode_request(body).ok());

  // target_k must be a sane positive compression target.
  for (const double bad_k : {0.0, -1.0, svc::kMaxTargetK * 2}) {
    request = predict_request(3);
    request.target_k = bad_k;
    body.clear();
    svc::encode_request(body, request);
    EXPECT_FALSE(svc::decode_request(body).ok()) << bad_k;
  }
}

TEST(SvcFrame, ResponseCodecRoundTripsSkeletonFields) {
  svc::ResponseHeader response;
  response.id = 9;
  response.status = svc::StatusCode::kOk;
  response.skeleton_hash = 0x1234567890abcdefull;
  response.skeleton_bytes = "PSKARCH1 pretend skeleton";
  response.values = {1.5};
  archive::Result<svc::ResponseHeader> decoded =
      svc::decode_response(encoded(response));
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_EQ(decoded.value().skeleton_hash, response.skeleton_hash);
  EXPECT_EQ(decoded.value().skeleton_bytes, response.skeleton_bytes);
  EXPECT_EQ(decoded.value().values, response.values);
}

TEST(SvcStatus, RetryClassificationAndBackoff) {
  EXPECT_TRUE(svc::is_retryable(svc::StatusCode::kOverloaded));
  EXPECT_TRUE(svc::is_retryable(svc::StatusCode::kTimeout));
  EXPECT_FALSE(svc::is_retryable(svc::StatusCode::kBadInput));
  EXPECT_FALSE(svc::is_retryable(svc::StatusCode::kOk));
  EXPECT_FALSE(svc::is_retryable(svc::StatusCode::kNotFound));
  const svc::RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(0), 0.01);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(1), 0.02);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(2), 0.04);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(30), 1.0);  // capped
}

TEST(SvcStatus, BackoffEdgesStayBoundedAndPositive) {
  // Attempt 0 and any negative attempt sleep the initial backoff: the
  // schedule never multiplies before the first retry.
  svc::RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(-1), 0.01);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(-1000), 0.01);

  // multiplier == 1.0 degenerates to a constant schedule, not a hang or 0.
  policy.multiplier = 1.0;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(0), 0.01);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(100), 0.01);

  // A misconfigured initial > max is clamped to max on every attempt.
  policy = svc::RetryPolicy{};
  policy.initial_backoff_seconds = 5.0;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(0), policy.max_backoff_seconds);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(3), policy.max_backoff_seconds);

  // Sweep: whatever the attempt, the backoff is positive and capped.
  policy = svc::RetryPolicy{};
  for (int attempt = -2; attempt <= 64; ++attempt) {
    const double backoff = policy.backoff_seconds(attempt);
    EXPECT_GT(backoff, 0.0) << attempt;
    EXPECT_LE(backoff, policy.max_backoff_seconds) << attempt;
  }
}

// -------------------------------------------------------------- reservoir

TEST(SvcReservoir, FirstSamplesAreKeptVerbatim) {
  svc::LatencyReservoir reservoir(4, 1);
  for (double v : {1.0, 2.0, 3.0}) reservoir.add(v);
  EXPECT_EQ(reservoir.count(), 3u);
  EXPECT_EQ(reservoir.samples(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SvcReservoir, LateSamplesStillInfluenceTheReservoir) {
  // The bug this replaces: first-N retention freezes percentiles on
  // startup traffic.  After 100x the capacity of late, larger samples,
  // the reservoir must contain some of them.
  const std::size_t capacity = 16;
  svc::LatencyReservoir reservoir(capacity, 7);
  for (std::size_t i = 0; i < capacity; ++i) reservoir.add(1.0);  // startup
  for (int i = 0; i < 1600; ++i) reservoir.add(1000.0);           // steady state
  EXPECT_EQ(reservoir.count(), capacity + 1600);
  EXPECT_EQ(reservoir.samples().size(), capacity);
  const std::size_t late = static_cast<std::size_t>(
      std::count(reservoir.samples().begin(), reservoir.samples().end(),
                 1000.0));
  EXPECT_GT(late, 0u);  // not frozen on the startup samples
}

TEST(SvcReservoir, SeededReplacementIsDeterministic) {
  svc::LatencyReservoir a(8, 42);
  svc::LatencyReservoir b(8, 42);
  for (int i = 0; i < 500; ++i) {
    a.add(i * 0.5);
    b.add(i * 0.5);
  }
  EXPECT_EQ(a.samples(), b.samples());
}

// ------------------------------------------------------------------ store

TEST(SvcStore, ContentAddressedPutAndGet) {
  svc::SkeletonStore store(memory_store(4, 1 << 20));
  const std::uint64_t hash = store.put("skeleton bytes");
  EXPECT_EQ(hash, archive::fingerprint64("skeleton bytes"));
  EXPECT_EQ(store.put("skeleton bytes"), hash);  // idempotent
  const std::optional<std::string> back = store.get(hash);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "skeleton bytes");
  EXPECT_FALSE(store.get(hash ^ 1).has_value());
  const svc::StoreStats stats = store.stats();
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.refreshed, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, std::string("skeleton bytes").size());
}

TEST(SvcStore, EvictsLeastRecentlyUsedOnEntryCap) {
  svc::SkeletonStore store(memory_store(2, 1 << 20));
  const std::uint64_t a = store.put("aaaa");
  const std::uint64_t b = store.put("bbbb");
  ASSERT_TRUE(store.get(a).has_value());  // a is now most recently used
  const std::uint64_t c = store.put("cccc");  // evicts b, not a
  EXPECT_TRUE(store.get(a).has_value());
  EXPECT_FALSE(store.get(b).has_value());
  EXPECT_TRUE(store.get(c).has_value());
  EXPECT_EQ(store.stats().evicted, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(SvcStore, ByteCapAndUnretainableEntries) {
  svc::SkeletonStore store(memory_store(16, 10));
  const std::uint64_t a = store.put("12345678");  // 8 of 10 bytes
  const std::uint64_t b = store.put("4444");      // evicts a to fit
  EXPECT_FALSE(store.get(a).has_value());
  EXPECT_TRUE(store.get(b).has_value());
  EXPECT_LE(store.stats().bytes, 10u);

  // A single container larger than the byte cap is never retained -- and
  // must not evict everything else on the way to discovering that.
  const std::uint64_t big = store.put("this is far more than ten bytes");
  EXPECT_FALSE(store.get(big).has_value());
  EXPECT_TRUE(store.get(b).has_value());

  // Zero entries disables the memory tier; with no disk tier nothing is
  // retained.
  svc::SkeletonStore off(memory_store(0, 1 << 20));
  EXPECT_FALSE(off.get(off.put("bytes")).has_value());
}

// ---------------------------------------------------------------- service

TEST(SvcService, PingAnswersOk) {
  svc::Service service;
  svc::Request ping;
  ping.header.id = 1;
  ping.header.op = svc::RequestOp::kPing;
  EXPECT_FALSE(service.submit(std::move(ping)).has_value());
  const std::vector<svc::ResponseHeader> responses = service.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kOk);
  EXPECT_EQ(responses[0].id, 1u);
}

/// Runs a fixed submit/drain schedule against a fresh service and returns
/// every response's canonical encoding, in submission order.
std::vector<std::string> run_schedule(int workers) {
  svc::ServiceOptions options;
  options.queue_capacity = 3;
  options.workers = workers;
  svc::Service service(options);
  std::vector<std::string> bytes;
  std::vector<std::size_t> pending_slots;
  auto drain_into = [&] {
    const std::vector<svc::ResponseHeader> responses = service.drain();
    EXPECT_EQ(responses.size(), pending_slots.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      bytes[pending_slots[i]] = encoded(responses[i]);
    }
    pending_slots.clear();
  };
  std::uint32_t id = 0;
  for (const int burst : {6, 2, 3}) {
    for (int i = 0; i < burst; ++i) {
      svc::Request request;
      request.header = predict_request(++id);
      const std::size_t slot = bytes.size();
      bytes.emplace_back();
      if (std::optional<svc::ResponseHeader> shed =
              service.submit(std::move(request))) {
        bytes[slot] = encoded(*shed);
      } else {
        pending_slots.push_back(slot);
      }
    }
    drain_into();
  }
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.completed, 11u);  // zero silent drops
  EXPECT_EQ(stats.shed, 3u);        // 6-request burst into capacity 3
  EXPECT_LE(stats.queue_high_water, 3u);
  return bytes;
}

TEST(SvcService, OverloadDecisionsAndPayloadsAreWorkerCountInvariant) {
  const std::vector<std::string> serial = run_schedule(1);
  const std::vector<std::string> threaded = run_schedule(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "response " << i;
  }
  // The shed pattern itself is pinned: burst of 6 into capacity 3 sheds
  // exactly the last 3, every later burst fits.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    archive::Result<svc::ResponseHeader> response =
        svc::decode_response(serial[i]);
    ASSERT_TRUE(response.ok());
    const bool expect_shed = i >= 3 && i < 6;
    EXPECT_EQ(response.value().status, expect_shed
                                           ? svc::StatusCode::kOverloaded
                                           : svc::StatusCode::kOk)
        << "response " << i;
  }
}

TEST(SvcService, ExpiredDeadlineTimesOutWithoutPartialValues) {
  svc::Service service;
  svc::Request request;
  request.header = predict_request(5, 3);
  request.header.deadline_seconds = 1e-9;  // expired by execution time
  EXPECT_FALSE(service.submit(std::move(request)).has_value());
  const std::vector<svc::ResponseHeader> responses = service.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kTimeout);
  EXPECT_TRUE(responses[0].values.empty());  // never a partial result
  EXPECT_TRUE(svc::is_retryable(responses[0].status));
}

TEST(SvcService, CanceledWhileQueuedAnswersCanceled) {
  svc::Service service;
  svc::Request request;
  request.header = predict_request(9);
  request.cancel = std::make_shared<std::atomic<bool>>(false);
  const auto cancel = request.cancel;
  EXPECT_FALSE(service.submit(std::move(request)).has_value());
  cancel->store(true);  // client disconnected before we drained
  const std::vector<svc::ResponseHeader> responses = service.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kCanceled);
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_FALSE(svc::is_retryable(responses[0].status));
}

svc::ResponseHeader roundtrip_one(svc::Service& service, svc::Request request) {
  service.submit(std::move(request));
  const std::vector<svc::ResponseHeader> responses = service.drain();
  EXPECT_EQ(responses.size(), 1u);
  return responses.empty() ? svc::ResponseHeader{} : responses[0];
}

TEST(SvcService, WrongPayloadKindIsBadInput) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  std::string payload;
  archive::encode(payload, trace);
  svc::Request request;
  request.header = predict_request(2);
  request.header.archive_bytes.clear();
  archive::write_frame(request.header.archive_bytes,
                       archive::PayloadKind::kTrace, archive::kTraceVersion,
                       payload);
  svc::Service service;
  const svc::ResponseHeader response =
      roundtrip_one(service, std::move(request));
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_NE(response.message.find("wanted a skeleton"), std::string::npos);
}

TEST(SvcService, UnknownScenarioIsBadInput) {
  svc::Request request;
  request.header = predict_request(3);
  request.header.scenario = "no-such-scenario";
  svc::Service service;
  const svc::ResponseHeader response =
      roundtrip_one(service, std::move(request));
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_FALSE(svc::is_retryable(response.status));
}

TEST(SvcService, UnsalvageableUploadIsBadInput) {
  svc::Request request;
  request.header = predict_request(4);
  request.header.archive_bytes = "not an archive at all";
  svc::Service service;
  const svc::ResponseHeader response =
      roundtrip_one(service, std::move(request));
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
}

TEST(SvcService, StrictWithoutFallbackRejectsTornUpload) {
  svc::ServiceOptions options;
  options.salvage_fallback = false;
  svc::Service service(options);
  svc::Request request;
  request.header = predict_request(6);
  request.header.archive_bytes.push_back('\0');  // torn/over-long container
  const svc::ResponseHeader response =
      roundtrip_one(service, std::move(request));
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_FALSE(response.degraded);
}

TEST(SvcService, SalvageFallbackDegradesInsteadOfRejecting) {
  svc::Service baseline_service;
  const svc::ResponseHeader baseline =
      roundtrip_one(baseline_service, svc::Request{predict_request(7), {}, {}});
  ASSERT_EQ(baseline.status, svc::StatusCode::kOk);
  ASSERT_EQ(baseline.values.size(), 1u);

  // A trailing junk byte breaks the strict container parse, but the guard
  // salvage layer recovers the full payload: same prediction, marked
  // degraded.
  svc::Request torn;
  torn.header = predict_request(7);
  torn.header.archive_bytes.push_back('\0');
  svc::Service service;
  const svc::ResponseHeader response = roundtrip_one(service, std::move(torn));
  ASSERT_EQ(response.status, svc::StatusCode::kOk);
  EXPECT_TRUE(response.degraded);
  EXPECT_NE(response.message.find("salvaged"), std::string::npos);
  EXPECT_EQ(response.values, baseline.values);
}

TEST(SvcService, TextSkeletonUploadIsBadInput) {
  // Uploads are PSKARCH1 containers; a skeleton in the retired text format
  // is not salvaged but refused, with the parser's own message.
  svc::Request text;
  text.header = predict_request(7);
  text.header.archive_bytes =
      "psk-skeleton 1\napp x\nk 1\nintended 1\nmin_good 1\ngood 1\n"
      "ranks 1\nrank 0 1 0 0\n";
  svc::Service service;
  const svc::ResponseHeader response = roundtrip_one(service, std::move(text));
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.message,
            "upload rejected: bad magic: not a psk archive (salvage "
            "recovered nothing)");
}

TEST(SvcService, PublishesCountersAndLatencyPercentiles) {
  svc::ServiceOptions options;
  options.queue_capacity = 1;
  svc::Service service(options);
  service.submit(svc::Request{predict_request(1), {}, {}});
  service.submit(svc::Request{predict_request(2), {}, {}});  // shed
  service.drain();
  obs::MetricsRegistry metrics;
  service.publish(metrics);
  const std::string kv = metrics.to_kv(0.0);
  EXPECT_NE(kv.find("svc.submitted=2"), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.shed=1"), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.status.ok=1"), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.status.overloaded=1"), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.latency_ms.ok.p99="), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.queue_depth.high_water=1"), std::string::npos) << kv;
  EXPECT_NE(kv.find("svc.store.inserted=1"), std::string::npos) << kv;
}

// ------------------------------------------------- construct & hash reuse

TEST(SvcService, ConstructBuildsSkeletonServerSideAndRetainsIt) {
  svc::Service service;
  const svc::ResponseHeader response =
      roundtrip_one(service, svc::Request{construct_request(1), {}, {}});
  ASSERT_EQ(response.status, svc::StatusCode::kOk) << response.message;
  ASSERT_NE(response.skeleton_hash, 0u);
  ASSERT_FALSE(response.skeleton_bytes.empty());
  // The returned container is the canonical encoding: its fingerprint is
  // the announced hash, and it parses back into a skeleton archive.
  EXPECT_EQ(archive::fingerprint64(response.skeleton_bytes),
            response.skeleton_hash);
  archive::Result<archive::Frame> frame =
      archive::read_frame(response.skeleton_bytes);
  ASSERT_TRUE(frame.ok()) << frame.error().render();
  EXPECT_EQ(frame.value().kind, archive::PayloadKind::kSkeleton);

  // The constructed skeleton stays resident: predicting by the returned
  // hash works without ever re-sending a container.
  const svc::ResponseHeader predicted = roundtrip_one(
      service, svc::Request{hash_request(2, response.skeleton_hash), {}, {}});
  ASSERT_EQ(predicted.status, svc::StatusCode::kOk) << predicted.message;
  EXPECT_EQ(predicted.values.size(), 1u);
  EXPECT_TRUE(predicted.skeleton_bytes.empty());  // only construct echoes it
}

TEST(SvcService, ConstructRejectsSkeletonUploadAsWrongKind) {
  svc::Service service;
  svc::RequestHeader request = construct_request(3);
  request.archive_bytes = skeleton_upload();
  const svc::ResponseHeader response =
      roundtrip_one(service, svc::Request{request, {}, {}});
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_NE(response.message.find("wanted a trace"), std::string::npos);
}

TEST(SvcService, ConstructRejectsTornTraceInsteadOfSalvaging) {
  // Traces have no salvage path: a torn trace would silently construct a
  // skeleton of a different application prefix.
  svc::Service service;
  svc::RequestHeader request = construct_request(4);
  request.archive_bytes.push_back('\0');
  const svc::ResponseHeader response =
      roundtrip_one(service, svc::Request{request, {}, {}});
  EXPECT_EQ(response.status, svc::StatusCode::kBadInput);
  EXPECT_FALSE(response.degraded);
}

TEST(SvcService, PredictByUnknownHashIsNotFound) {
  svc::Service service;
  const svc::ResponseHeader response = roundtrip_one(
      service, svc::Request{hash_request(5, 0xdeadbeefull), {}, {}});
  EXPECT_EQ(response.status, svc::StatusCode::kNotFound);
  EXPECT_FALSE(svc::is_retryable(response.status));  // re-upload, not retry
  EXPECT_NE(response.message.find("re-upload"), std::string::npos);
  EXPECT_TRUE(response.values.empty());
}

TEST(SvcService, HashPredictMatchesContainerPredictByteForByte) {
  svc::Service service;
  const svc::ResponseHeader uploaded =
      roundtrip_one(service, svc::Request{predict_request(21), {}, {}});
  ASSERT_EQ(uploaded.status, svc::StatusCode::kOk) << uploaded.message;
  ASSERT_NE(uploaded.skeleton_hash, 0u);

  // Same request id, seed and scenario: naming the skeleton by hash must
  // produce the byte-identical encoded response to re-uploading it.
  const svc::ResponseHeader by_container =
      roundtrip_one(service, svc::Request{predict_request(21), {}, {}});
  const svc::ResponseHeader by_hash = roundtrip_one(
      service, svc::Request{hash_request(21, uploaded.skeleton_hash), {}, {}});
  EXPECT_EQ(encoded(by_hash), encoded(by_container));
  EXPECT_EQ(by_hash.values, uploaded.values);
}

TEST(SvcService, EvictedSkeletonAnswersNotFound) {
  svc::ServiceOptions options;
  options.skeleton_store_entries = 1;
  svc::Service service(options);
  const svc::ResponseHeader first =
      roundtrip_one(service, svc::Request{predict_request(1), {}, {}});
  ASSERT_EQ(first.status, svc::StatusCode::kOk);
  // Constructing at a different compression target fills the single slot
  // with a different skeleton, evicting the uploaded one.
  const svc::ResponseHeader second =
      roundtrip_one(service, svc::Request{construct_request(2, 25.0), {}, {}});
  ASSERT_EQ(second.status, svc::StatusCode::kOk) << second.message;
  if (second.skeleton_hash != first.skeleton_hash) {
    const svc::ResponseHeader miss = roundtrip_one(
        service, svc::Request{hash_request(3, first.skeleton_hash), {}, {}});
    EXPECT_EQ(miss.status, svc::StatusCode::kNotFound);
  }
}

// Live mode: concurrent submitters, a dispatcher thread and the worker
// pool all running at once (exercised under TSan in CI).  Every request
// must be answered exactly once, shed ones included.
TEST(SvcLive, EveryRequestAnsweredExactlyOnceUnderConcurrentSubmit) {
  skeleton_upload();  // build the shared sample before threads race on it
  svc::ServiceOptions options;
  options.queue_capacity = 4;
  options.workers = 2;
  svc::Service service(options);
  std::mutex mutex;
  std::map<std::uint32_t, int> answers;
  service.start([&](const svc::ResponseHeader& response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++answers[response.id];
    EXPECT_TRUE(response.status == svc::StatusCode::kOk ||
                response.status == svc::StatusCode::kOverloaded);
  });
  constexpr int kThreads = 2;
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, t] {
      for (int i = 0; i < kPerThread; ++i) {
        svc::Request request;
        request.header = predict_request(
            static_cast<std::uint32_t>(t * kPerThread + i + 1));
        service.submit(std::move(request));
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  service.stop();  // drains everything still queued
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(answers.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& [id, count] : answers) {
    EXPECT_EQ(count, 1) << "request " << id;
  }
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
}

// ------------------------------------------------------------ pskd binary

std::string binary_dir() { return std::string(PSK_BUILD_DIR); }

struct PipeResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

PipeResult run_pskd(const std::string& flags, const std::string& input) {
  static int sequence = 0;
  const std::string stem = testing::TempDir() + "/svc_pipe_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(sequence++);
  {
    std::ofstream in(stem + ".in", std::ios::binary);
    in.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  const int status = std::system((binary_dir() + "/tools/pskd " + flags +
                                  " < " + stem + ".in > " + stem + ".out 2> " +
                                  stem + ".err")
                                     .c_str());
  PipeResult result;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  std::ifstream out(stem + ".out", std::ios::binary);
  result.out.assign((std::istreambuf_iterator<char>(out)),
                    std::istreambuf_iterator<char>());
  std::ifstream err(stem + ".err");
  result.err.assign((std::istreambuf_iterator<char>(err)),
                    std::istreambuf_iterator<char>());
  return result;
}

std::string request_frame(const svc::RequestHeader& header) {
  std::string body;
  svc::encode_request(body, header);
  std::string framed;
  svc::append_frame(framed, svc::FrameKind::kRequest, body);
  return framed;
}

std::vector<svc::ResponseHeader> parse_responses(const std::string& stream) {
  std::vector<svc::ResponseHeader> responses;
  std::string_view rest(stream);
  while (!rest.empty()) {
    svc::Frame frame;
    std::size_t consumed = 0;
    archive::Error error;
    EXPECT_EQ(svc::try_parse_frame(rest, svc::kMaxFrameBytes, frame, consumed,
                                   error),
              svc::ParseProgress::kFrame)
        << error.render();
    if (consumed == 0) break;
    EXPECT_EQ(frame.kind, svc::FrameKind::kResponse);
    archive::Result<svc::ResponseHeader> response =
        svc::decode_response(frame.body);
    EXPECT_TRUE(response.ok()) << response.error().render();
    if (response.ok()) responses.push_back(response.take());
    rest.remove_prefix(consumed);
  }
  return responses;
}

TEST(SvcPipe, EndToEndBatchOverStdio) {
  std::string stream;
  stream += request_frame(predict_request(1));
  svc::RequestHeader ping;
  ping.id = 2;
  ping.op = svc::RequestOp::kPing;
  stream += request_frame(ping);
  svc::append_frame(stream, svc::FrameKind::kFlush, "");
  stream += request_frame(predict_request(3));  // EOF is the final flush

  const PipeResult result = run_pskd("--deadline=60", stream);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  const std::vector<svc::ResponseHeader> responses =
      parse_responses(result.out);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].id, 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kOk);
  EXPECT_EQ(responses[0].values.size(), 1u);
  EXPECT_EQ(responses[1].id, 2u);
  EXPECT_EQ(responses[1].status, svc::StatusCode::kOk);
  EXPECT_EQ(responses[2].id, 3u);
  EXPECT_EQ(responses[2].status, svc::StatusCode::kOk);
}

TEST(SvcPipe, DisconnectMidFrameCancelsQueuedRequests) {
  std::string stream = request_frame(predict_request(1));
  std::string next = request_frame(predict_request(2));
  stream += next.substr(0, 12);  // the client died mid-send

  const PipeResult result = run_pskd("", stream);
  EXPECT_EQ(result.exit_code, 2) << result.err;  // protocol/format ladder
  EXPECT_NE(result.err.find("mid-frame"), std::string::npos) << result.err;
  const std::vector<svc::ResponseHeader> responses =
      parse_responses(result.out);
  // The queued request still gets a definite answer: kCanceled, not silence.
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].id, 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kCanceled);
}

TEST(SvcPipe, GarbageStreamExitsWithFormatCode) {
  const PipeResult result = run_pskd("", "this is not a frame");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("pskd:"), std::string::npos);
}

TEST(SvcPipe, RejectsUnknownValidateModeListingValidOnes) {
  const PipeResult result = run_pskd("--validate=bogus", "");
  EXPECT_EQ(result.exit_code, 1);  // usage/configuration ladder
  EXPECT_NE(result.err.find("strict|salvage|off"), std::string::npos)
      << result.err;
}

TEST(SvcPipe, WritesMetricsFileWhenAsked) {
  static int sequence = 0;
  const std::string metrics_path = testing::TempDir() + "/svc_metrics_" +
                                   std::to_string(::getpid()) + "_" +
                                   std::to_string(sequence++) + ".kv";
  std::string stream;
  svc::RequestHeader ping;
  ping.id = 1;
  ping.op = svc::RequestOp::kPing;
  stream += request_frame(ping);
  const PipeResult result =
      run_pskd("--metrics-out=" + metrics_path, stream);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  std::ifstream in(metrics_path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("svc.status.ok=1"), std::string::npos)
      << text.str();
}

TEST(SvcPipe, RejectsOutOfRangeMaxFrameMb) {
  // Unclamped, `N << 20` would overflow size_t long before N itself
  // overflows the flag parser.
  const PipeResult result = run_pskd("--max-frame-mb=4096", "");
  EXPECT_EQ(result.exit_code, 1) << result.err;  // configuration ladder
  EXPECT_NE(result.err.find("[1, 1024]"), std::string::npos) << result.err;
  EXPECT_EQ(run_pskd("--max-frame-mb=0", "").exit_code, 1);
}

TEST(SvcPipe, HealthFrameAnsweredImmediatelyBeforeBatchDrain) {
  std::string stream;
  stream += request_frame(predict_request(1));
  svc::append_frame(stream, svc::FrameKind::kHealth, "");
  const PipeResult result = run_pskd("", stream);
  EXPECT_EQ(result.exit_code, 0) << result.err;

  // Even though the predict was submitted first, the health answer comes
  // out first: probes bypass the batch and are flushed immediately.
  std::string_view rest(result.out);
  svc::Frame frame;
  std::size_t consumed = 0;
  archive::Error error;
  ASSERT_EQ(svc::try_parse_frame(rest, svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kFrame)
      << error.render();
  ASSERT_EQ(frame.kind, svc::FrameKind::kHealth);
  archive::Result<svc::HealthInfo> health = svc::decode_health(frame.body);
  ASSERT_TRUE(health.ok()) << health.error().render();
  EXPECT_EQ(health.value().queue_depth, 1u);  // the predict, still queued
  EXPECT_GE(health.value().uptime_seconds, 0.0);
  rest.remove_prefix(consumed);

  ASSERT_EQ(svc::try_parse_frame(rest, svc::kMaxFrameBytes, frame, consumed,
                                 error),
            svc::ParseProgress::kFrame);
  EXPECT_EQ(frame.kind, svc::FrameKind::kResponse);
  archive::Result<svc::ResponseHeader> response =
      svc::decode_response(frame.body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().id, 1u);
  EXPECT_EQ(response.value().status, svc::StatusCode::kOk);
  rest.remove_prefix(consumed);
  EXPECT_TRUE(rest.empty());
}

TEST(SvcPipe, ChaosFlagsAreDeterministicLoudAndHarmless) {
  std::string stream;
  stream += request_frame(predict_request(1));
  stream += request_frame(predict_request(2));

  const std::string flags = "--chaos-seed=3 --chaos-profile=heavy";
  const PipeResult first = run_pskd(flags, stream);
  const PipeResult second = run_pskd(flags, stream);
  const PipeResult without = run_pskd("", stream);
  EXPECT_EQ(first.exit_code, 0) << first.err;
  // Same seed, same schedule, same bytes; and chaos perturbs timing and
  // durability, never the answers -- the chaos-off run matches too.
  EXPECT_EQ(first.out, second.out);
  EXPECT_EQ(first.out, without.out);
  // The shutdown summary names the schedule so a failing run is
  // reproducible from its log.
  EXPECT_NE(first.err.find("chaos"), std::string::npos) << first.err;
  EXPECT_EQ(without.err.find("chaos"), std::string::npos) << without.err;

  const PipeResult bad = run_pskd("--chaos-profile=bogus", "");
  EXPECT_EQ(bad.exit_code, 1);  // configuration ladder
  EXPECT_NE(bad.err.find("light"), std::string::npos) << bad.err;
}

TEST(SvcPipe, StoreDirServesHashPredictAcrossDaemonRestart) {
  const std::string dir = store_dir("pipe_restart");
  const PipeResult first =
      run_pskd("--store-dir=" + dir, request_frame(predict_request(1)));
  ASSERT_EQ(first.exit_code, 0) << first.err;
  std::vector<svc::ResponseHeader> responses = parse_responses(first.out);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].status, svc::StatusCode::kOk);
  const std::uint64_t hash = responses[0].skeleton_hash;
  ASSERT_NE(hash, 0u);

  // A *new daemon process* on the same store directory serves the hash
  // without the container ever being re-sent.
  const PipeResult second =
      run_pskd("--store-dir=" + dir, request_frame(hash_request(2, hash)));
  ASSERT_EQ(second.exit_code, 0) << second.err;
  responses = parse_responses(second.out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kOk)
      << responses[0].message;
  EXPECT_EQ(responses[0].values, parse_responses(first.out)[0].values);

  // Without the directory, the same hash is a clean kNotFound.
  const PipeResult fresh =
      run_pskd("", request_frame(hash_request(3, hash)));
  ASSERT_EQ(fresh.exit_code, 0) << fresh.err;
  responses = parse_responses(fresh.out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, svc::StatusCode::kNotFound);
}

// ---------------------------------------------------------------- sockets

TEST(SvcTransport, ParseListenAddressFormsAndErrors) {
  const svc::ListenAddress unix_address =
      svc::parse_listen_address("unix:/tmp/p.sock");
  EXPECT_EQ(unix_address.kind, svc::ListenAddress::Kind::kUnix);
  EXPECT_EQ(unix_address.path, "/tmp/p.sock");
  EXPECT_EQ(svc::listen_address_name(unix_address), "unix:/tmp/p.sock");

  const svc::ListenAddress tcp_address =
      svc::parse_listen_address("tcp:127.0.0.1:7071");
  EXPECT_EQ(tcp_address.kind, svc::ListenAddress::Kind::kTcp);
  EXPECT_EQ(tcp_address.host, "127.0.0.1");
  EXPECT_EQ(tcp_address.port, 7071);
  EXPECT_EQ(svc::listen_address_name(tcp_address), "tcp:127.0.0.1:7071");
  EXPECT_EQ(svc::parse_listen_address("tcp:localhost:0").port, 0);

  for (const std::string bad :
       {"", "bogus", "unix:", "tcp:127.0.0.1", "tcp:127.0.0.1:99999",
        "tcp:not-a-host:80"}) {
    EXPECT_THROW(svc::parse_listen_address(bad), ConfigError) << bad;
  }
}

std::string socket_path(const std::string& tag) {
  static int sequence = 0;
  return testing::TempDir() + "/svc_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(sequence++);
}

svc::ListenAddress unix_address(const std::string& tag) {
  svc::ListenAddress address;
  address.kind = svc::ListenAddress::Kind::kUnix;
  address.path = socket_path(tag);
  return address;
}

/// Polls `done` for up to 10 seconds; the conditions waited on are
/// one-way (monotone counters), so polling cannot miss them.
bool wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(SvcSocket, UploadConstructAndHashPredictOverUnixSocket) {
  svc::ServiceOptions options;
  options.workers = 2;
  svc::Service service(options);
  service.start([](const svc::ResponseHeader&) {});
  const svc::ListenAddress address = unix_address("e2e");
  svc::SocketServer server(address, service, {});
  std::thread serving([&server] { server.serve(1); });

  {
    svc::SocketClient client(address);
    client.send_request(predict_request(1));
    svc::ResponseHeader uploaded;
    ASSERT_TRUE(client.read_response(uploaded));
    EXPECT_EQ(uploaded.id, 1u);
    ASSERT_EQ(uploaded.status, svc::StatusCode::kOk) << uploaded.message;
    ASSERT_NE(uploaded.skeleton_hash, 0u);

    client.send_request(hash_request(2, uploaded.skeleton_hash));
    svc::ResponseHeader by_hash;
    ASSERT_TRUE(client.read_response(by_hash));
    EXPECT_EQ(by_hash.id, 2u);
    ASSERT_EQ(by_hash.status, svc::StatusCode::kOk) << by_hash.message;
    EXPECT_EQ(by_hash.values, uploaded.values);

    client.send_request(construct_request(3));
    svc::ResponseHeader constructed;
    ASSERT_TRUE(client.read_response(constructed));
    ASSERT_EQ(constructed.status, svc::StatusCode::kOk)
        << constructed.message;
    EXPECT_FALSE(constructed.skeleton_bytes.empty());
    client.shutdown_send();  // clean EOF at a frame boundary
  }
  serving.join();
  service.stop();
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().clean, 1u);
}

TEST(SvcSocket, EphemeralTcpPortIsResolvedAndServes) {
  svc::Service service;
  service.start([](const svc::ResponseHeader&) {});
  svc::SocketServer server(svc::parse_listen_address("tcp:127.0.0.1:0"),
                           service, {});
  ASSERT_NE(server.bound_address().port, 0);  // resolved at bind
  std::thread serving([&server] { server.serve(1); });
  {
    svc::SocketClient client(server.bound_address());
    svc::RequestHeader ping;
    ping.id = 5;
    ping.op = svc::RequestOp::kPing;
    client.send_request(ping);
    svc::ResponseHeader response;
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.id, 5u);
    EXPECT_EQ(response.status, svc::StatusCode::kOk);
    client.shutdown_send();
  }
  serving.join();
  service.stop();
}

TEST(SvcSocket, DisconnectCancelsOnlyThatConnectionsQueuedRequests) {
  // The service is deliberately not started yet, so submitted requests sit
  // in the queue while connections come and go -- that makes the
  // disconnect-while-queued ordering deterministic instead of a race.
  svc::ServiceOptions options;
  options.workers = 1;
  svc::Service service(options);
  const svc::ListenAddress address = unix_address("cancel");
  svc::SocketServer server(address, service, {});
  std::thread serving([&server] { server.serve(2); });

  {
    svc::SocketClient doomed(address);
    doomed.send_request(predict_request(1));
    ASSERT_TRUE(wait_for([&] { return service.stats().submitted >= 1; }));
    doomed.close();  // abrupt disconnect with the request still queued
  }
  // Wait for the doomed session's teardown (which trips its cancel flags)
  // before letting the dispatcher drain.
  ASSERT_TRUE(wait_for([&] {
    const svc::SocketServerStats stats = server.stats();
    return stats.clean + stats.mid_frame >= 1;
  }));

  svc::SocketClient survivor(address);
  survivor.send_request(predict_request(2));
  ASSERT_TRUE(wait_for([&] { return service.stats().submitted >= 2; }));

  service.start([](const svc::ResponseHeader&) {});
  svc::ResponseHeader response;
  ASSERT_TRUE(survivor.read_response(response));
  EXPECT_EQ(response.id, 2u);
  EXPECT_EQ(response.status, svc::StatusCode::kOk) << response.message;
  survivor.shutdown_send();
  serving.join();
  service.stop();

  // Exactly the doomed connection's request was canceled; the survivor's
  // ran to completion.
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.by_status[static_cast<int>(svc::StatusCode::kCanceled)],
            1u);
  EXPECT_EQ(stats.by_status[static_cast<int>(svc::StatusCode::kOk)], 1u);
  EXPECT_EQ(stats.completed, 2u);  // no silent drops either way
}

TEST(SvcSocket, SessionInflightCapShedsLocally) {
  svc::Service service;  // not started: the first request stays queued
  const svc::ListenAddress address = unix_address("cap");
  svc::SessionOptions session_options;
  session_options.max_inflight = 1;
  svc::SocketServer server(address, service, session_options);
  std::thread serving([&server] { server.serve(1); });

  svc::SocketClient client(address);
  client.send_request(predict_request(1));  // admitted, queued
  client.send_request(predict_request(2));  // past the session's cap
  svc::ResponseHeader shed;
  ASSERT_TRUE(client.read_response(shed));  // shed answers immediately
  EXPECT_EQ(shed.id, 2u);
  EXPECT_EQ(shed.status, svc::StatusCode::kOverloaded);
  EXPECT_NE(shed.message.find("in-flight"), std::string::npos)
      << shed.message;
  EXPECT_TRUE(svc::is_retryable(shed.status));

  service.start([](const svc::ResponseHeader&) {});
  svc::ResponseHeader first;
  ASSERT_TRUE(client.read_response(first));
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.status, svc::StatusCode::kOk) << first.message;
  client.shutdown_send();
  serving.join();
  service.stop();
}

TEST(SvcSocket, MidFrameDeathIsClassifiedWithoutPoisoningTheServer) {
  svc::Service service;
  service.start([](const svc::ResponseHeader&) {});
  const svc::ListenAddress address = unix_address("midframe");
  svc::SocketServer server(address, service, {});
  std::thread serving([&server] { server.serve(2); });
  {
    svc::SocketClient dying(address);
    dying.send_bytes(request_frame(predict_request(1)).substr(0, 12));
    dying.close();  // died mid-send
  }
  // A later connection is completely unaffected.
  svc::SocketClient healthy(address);
  svc::RequestHeader ping;
  ping.id = 9;
  ping.op = svc::RequestOp::kPing;
  healthy.send_request(ping);
  svc::ResponseHeader response;
  ASSERT_TRUE(healthy.read_response(response));
  EXPECT_EQ(response.id, 9u);
  EXPECT_EQ(response.status, svc::StatusCode::kOk);
  healthy.shutdown_send();
  serving.join();
  service.stop();
  EXPECT_EQ(server.stats().mid_frame, 1u);
  EXPECT_EQ(server.stats().clean, 1u);
}

// ------------------------------------------------------------------ chaos

TEST(SvcChaos, ScheduleIsDeterministicPerSiteAndSeed) {
  svc::ChaosProfile profile;
  profile.worker_stall_rate = 0.3;
  profile.store_write_fail_rate = 0.7;
  svc::ChaosSchedule a(42, profile);
  svc::ChaosSchedule b(42, profile);
  svc::ChaosSchedule other(43, profile);
  std::vector<bool> a_fires, b_fires, other_fires;
  for (int i = 0; i < 256; ++i) {
    // Interleave sites differently across schedules: per-site streams must
    // not care what other sites drew in between.
    if (i % 2 == 0) b.fire(svc::ChaosSite::kStoreWriteFail);
    a_fires.push_back(a.fire(svc::ChaosSite::kWorkerStall));
    b_fires.push_back(b.fire(svc::ChaosSite::kWorkerStall));
    other_fires.push_back(other.fire(svc::ChaosSite::kWorkerStall));
  }
  EXPECT_EQ(a_fires, b_fires);
  EXPECT_NE(a_fires, other_fires);

  const svc::ChaosStats stats = a.stats();
  const auto stall = static_cast<std::size_t>(svc::ChaosSite::kWorkerStall);
  EXPECT_EQ(stats.consulted[stall], 256u);
  const std::uint64_t injected = stats.injected[stall];
  EXPECT_GT(injected, 256u / 10);  // ~0.3 of 256, loose bounds
  EXPECT_LT(injected, 256u / 2);

  // Magnitude draws are jittered around the profile value and never
  // perturb the decision stream (they use a separate counter).
  const double ms = a.worker_stall_ms();
  EXPECT_GE(ms, profile.worker_stall_ms * 0.5);
  EXPECT_LE(ms, profile.worker_stall_ms * 1.5);
}

TEST(SvcChaos, ProfileParsingPresetsAndKnobs) {
  EXPECT_GT(svc::parse_chaos_profile("heavy").worker_stall_rate, 0.0);
  EXPECT_GT(svc::parse_chaos_profile("disk").store_corrupt_rate, 0.0);
  EXPECT_GT(svc::parse_chaos_profile("network").short_write_rate, 0.0);

  const svc::ChaosProfile custom =
      svc::parse_chaos_profile("worker_stall_rate=0.5,worker_stall_ms=80");
  EXPECT_DOUBLE_EQ(custom.worker_stall_rate, 0.5);
  EXPECT_DOUBLE_EQ(custom.worker_stall_ms, 80.0);
  EXPECT_DOUBLE_EQ(custom.read_delay_rate, 0.0);  // untouched knobs default

  for (const std::string bad :
       {"bogus", "worker_stall_rate=1.5", "worker_stall_rate=-0.1",
        "no_such_knob=1", "worker_stall_rate", "worker_stall_ms=nan"}) {
    EXPECT_THROW(svc::parse_chaos_profile(bad), ConfigError) << bad;
  }
  try {
    svc::parse_chaos_profile("zzz");
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("light"), std::string::npos)
        << e.what();  // the error lists the presets
  }
}

// ------------------------------------------------------------- disk store

TEST(SvcStoreEntry, CodecRoundTripsAndRejectsDamage) {
  // A skeleton entry is content-addressed: empty key, named by its bytes.
  const std::string payload = skeleton_upload();
  const std::uint64_t hash = archive::fingerprint64(payload);
  const std::string entry = cache::encode_entry(hash, {}, payload);

  archive::Result<cache::BlobEntry> decoded = cache::decode_entry(entry);
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_EQ(decoded.value().hash, hash);
  EXPECT_EQ(decoded.value().key, "");
  EXPECT_EQ(decoded.value().value, payload);

  // Truncation at any of the structural boundaries is rejected.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{12}, entry.size() - 1}) {
    EXPECT_FALSE(cache::decode_entry(entry.substr(0, keep)).ok()) << keep;
  }
  // A flipped byte anywhere fails the checksum (or magic/size checks).
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{7}, entry.size() / 2, entry.size() - 2}) {
    std::string damaged = entry;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x20);
    EXPECT_FALSE(cache::decode_entry(damaged).ok()) << at;
  }
  // An entry filed under the wrong hash violates content addressing even
  // when its checksum is internally consistent.
  EXPECT_FALSE(
      cache::decode_entry(cache::encode_entry(hash ^ 1, {}, payload)).ok());
  // A keyed entry is named by its key, not by its value.
  EXPECT_TRUE(cache::decode_entry(cache::encode_entry(
                                      archive::fingerprint64("k"), "k", payload))
                  .ok());
  EXPECT_FALSE(cache::decode_entry(cache::encode_entry(hash, "k", payload)).ok());
  // Trailing bytes after the checksum are rejected.
  EXPECT_FALSE(cache::decode_entry(entry + "x").ok());
}

TEST(SvcStore, DiskTierSurvivesRestart) {
  svc::StoreOptions options;
  options.disk_dir = store_dir("restart");
  std::uint64_t hash = 0;
  {
    svc::SkeletonStore store(options);
    hash = store.put(skeleton_upload());
    const svc::StoreStats stats = store.stats();
    EXPECT_EQ(stats.disk_entries, 1u);
    EXPECT_GT(stats.disk_bytes, 0u);
  }
  // "Restart": a brand-new store on the same directory re-indexes the
  // entry and serves it from disk.
  svc::SkeletonStore reborn(options);
  EXPECT_EQ(reborn.stats().restored, 1u);
  const std::optional<std::string> bytes = reborn.get(hash);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, skeleton_upload());
  const svc::StoreStats stats = reborn.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  // The disk hit promoted the entry back into memory.
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SvcStore, CorruptDiskEntryIsQuarantinedNeverServed) {
  svc::StoreOptions options;
  options.disk_dir = store_dir("corrupt");
  std::uint64_t hash = 0;
  {
    svc::SkeletonStore store(options);
    hash = store.put(skeleton_upload());
  }
  svc::SkeletonStore reborn(options);
  const std::string path = reborn.entry_path(hash);
  {
    // Flip one payload byte on disk -- bit rot, a torn write, a bad disk.
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    char byte = 0;
    file.seekg(24);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(24);
    file.write(&byte, 1);
  }
  // The damaged entry is never served: the lookup misses, the file is
  // quarantined for triage, and a second lookup does not double-count.
  EXPECT_FALSE(reborn.get(hash).has_value());
  svc::StoreStats stats = reborn.stats();
  EXPECT_EQ(stats.verify_failures, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_FALSE(std::ifstream(path).good());           // gone from its name
  EXPECT_TRUE(std::ifstream(path + ".quar").good());  // kept for triage
  EXPECT_FALSE(reborn.get(hash).has_value());
  EXPECT_EQ(reborn.stats().verify_failures, 1u);
}

TEST(SvcStore, ChaosWriteFailureDegradesToMemoryOnly) {
  svc::ChaosProfile profile;
  profile.store_write_fail_rate = 1.0;
  svc::ChaosSchedule chaos(7, profile);
  svc::StoreOptions options;
  options.disk_dir = store_dir("writefail");
  options.chaos = &chaos;
  std::uint64_t hash = 0;
  {
    svc::SkeletonStore store(options);
    hash = store.put(skeleton_upload());
    const svc::StoreStats stats = store.stats();
    EXPECT_EQ(stats.disk_write_failures, 1u);
    EXPECT_EQ(stats.disk_entries, 0u);
    // The entry still serves from memory in this incarnation.
    EXPECT_TRUE(store.get(hash).has_value());
  }
  // ...but did not survive the restart: the write never happened.
  options.chaos = nullptr;
  svc::SkeletonStore reborn(options);
  EXPECT_EQ(reborn.stats().restored, 0u);
  EXPECT_FALSE(reborn.get(hash).has_value());
}

TEST(SvcStore, ChaosCorruptionOnWriteIsCaughtAtRead) {
  svc::ChaosProfile profile;
  profile.store_corrupt_rate = 1.0;
  svc::ChaosSchedule chaos(7, profile);
  svc::StoreOptions options;
  options.disk_dir = store_dir("bitrot");
  options.chaos = &chaos;
  std::uint64_t hash = 0;
  {
    svc::SkeletonStore store(options);
    hash = store.put(skeleton_upload());
    EXPECT_EQ(store.stats().disk_entries, 1u);  // the write "succeeded"
  }
  options.chaos = nullptr;
  svc::SkeletonStore reborn(options);
  EXPECT_EQ(reborn.stats().restored, 1u);  // indexed by name at startup...
  EXPECT_FALSE(reborn.get(hash).has_value());  // ...but never served
  EXPECT_EQ(reborn.stats().verify_failures, 1u);
}

// ------------------------------------------------- chaos through the service

TEST(SvcService, SameChaosSeedGivesByteIdenticalResponses) {
  const auto run_once = [](svc::ChaosSchedule* chaos) {
    svc::ServiceOptions options;
    options.workers = 2;
    options.chaos = chaos;
    svc::Service service(options);
    for (std::uint32_t id = 1; id <= 6; ++id) {
      svc::Request request;
      request.header = predict_request(id);
      service.submit(std::move(request));
    }
    std::vector<std::string> bytes;
    for (const svc::ResponseHeader& response : service.drain()) {
      bytes.push_back(encoded(response));
    }
    return bytes;
  };
  svc::ChaosProfile profile;
  profile.worker_stall_rate = 0.5;
  profile.worker_stall_ms = 1.0;
  profile.store_write_fail_rate = 0.5;
  svc::ChaosSchedule first(99, profile);
  svc::ChaosSchedule second(99, profile);
  const std::vector<std::string> with_first = run_once(&first);
  const std::vector<std::string> with_second = run_once(&second);
  const std::vector<std::string> without = run_once(nullptr);
  // Same seed twice: byte-identical response sets.  And chaos never
  // corrupts answers: the no-chaos run matches too (stalls and store
  // failures change timing and durability, not response bytes).
  EXPECT_EQ(with_first, with_second);
  EXPECT_EQ(with_first, without);
}

TEST(SvcSupervisor, HungWorkerIsTimedOutIsolatedAndReplaced) {
  skeleton_upload();  // build the shared sample before the clock matters
  svc::ChaosProfile profile;
  profile.worker_stall_rate = 1.0;
  profile.worker_stall_ms = 600.0;  // jittered to [300, 900]ms
  svc::ChaosSchedule chaos(5, profile);
  svc::ServiceOptions options;
  options.workers = 1;
  options.chaos = &chaos;
  options.supervisor_grace_seconds = 0.05;
  options.supervisor_poll_seconds = 0.01;
  svc::Service service(options);
  std::mutex mutex;
  std::map<std::uint32_t, std::vector<svc::ResponseHeader>> answers;
  service.start([&](const svc::ResponseHeader& response) {
    std::lock_guard<std::mutex> lock(mutex);
    answers[response.id].push_back(response);
  });

  // Request 1 carries a deadline far shorter than the injected stall: the
  // supervisor must answer it kTimeout while the worker is still stuck.
  svc::Request hung;
  hung.header = predict_request(1);
  hung.header.deadline_seconds = 0.05;
  service.submit(std::move(hung));
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> lock(mutex);
    return answers.count(1) != 0;
  }));

  // Request 2 has no tight deadline: the *replacement* worker (or the
  // recovered one) must serve it to completion -- pool capacity healed.
  svc::Request next;
  next.header = predict_request(2);
  service.submit(std::move(next));
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> lock(mutex);
    return answers.count(2) != 0;
  }));
  service.stop();  // joins the retired stalled thread too

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(answers[1].size(), 1u);  // exactly once, supervisor vs worker
  EXPECT_EQ(answers[1][0].status, svc::StatusCode::kTimeout);
  EXPECT_NE(answers[1][0].message.find("supervisor"), std::string::npos)
      << answers[1][0].message;
  ASSERT_EQ(answers[2].size(), 1u);
  EXPECT_EQ(answers[2][0].status, svc::StatusCode::kOk)
      << answers[2][0].message;

  const svc::ServiceStats stats = service.stats();
  EXPECT_GE(stats.hung_detected, 1u);
  EXPECT_GE(stats.workers_replaced, 1u);
  // The stalled worker finished eventually; its result was discarded.
  EXPECT_GE(stats.late_results_discarded, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

// ------------------------------------------------------------------ health

TEST(SvcHealth, CodecRoundTripsAndRejectsDamage) {
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
  std::string body;
  svc::encode_health(body, health);
  archive::Result<svc::HealthInfo> decoded = svc::decode_health(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().render();
  EXPECT_DOUBLE_EQ(decoded.value().uptime_seconds, 12.5);
  EXPECT_EQ(decoded.value().queue_depth, 3u);
  EXPECT_EQ(decoded.value().queue_capacity, 64u);
  EXPECT_EQ(decoded.value().workers, 4u);
  EXPECT_EQ(decoded.value().completed, 100u);

  EXPECT_FALSE(svc::decode_health(body + "x").ok());      // trailing bytes
  EXPECT_FALSE(svc::decode_health(body.substr(0, 10)).ok());  // truncated
  svc::HealthInfo negative = health;
  negative.uptime_seconds = -1.0;
  std::string bad;
  svc::encode_health(bad, negative);
  EXPECT_FALSE(svc::decode_health(bad).ok());
}

TEST(SvcHealth, SocketProbeBypassesAdmission) {
  svc::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  svc::Service service(options);
  service.start([](const svc::ResponseHeader&) {});
  const svc::ListenAddress address = unix_address("health");
  svc::SocketServer server(address, service, {});
  std::thread serving([&server] { server.serve(1); });
  {
    svc::SocketClient client(address);
    const std::optional<svc::HealthInfo> idle = client.query_health();
    ASSERT_TRUE(idle.has_value());
    EXPECT_EQ(idle->queue_capacity, 2u);
    EXPECT_GE(idle->workers, 1u);
    EXPECT_GE(idle->uptime_seconds, 0.0);

    // Health interleaved with real traffic: the probe's answer must not
    // swallow the request's response.
    client.send_request(predict_request(1));
    const std::optional<svc::HealthInfo> busy = client.query_health();
    ASSERT_TRUE(busy.has_value());
    svc::ResponseHeader response;
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.id, 1u);
    EXPECT_EQ(response.status, svc::StatusCode::kOk) << response.message;
    EXPECT_GE(busy->completed + busy->queue_depth + busy->inflight, 0u);
    client.shutdown_send();
  }
  serving.join();
  service.stop();
}

// ----------------------------------------------------------- RetryingClient

TEST(SvcRetry, ReconnectsAcrossServerRestartAndReplaysByHash) {
  const svc::ListenAddress address = unix_address("retry");
  svc::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_seconds = 0.01;
  svc::RetryingClient client(address, policy);

  std::vector<double> first_values;
  {
    svc::Service service;
    service.start([](const svc::ResponseHeader&) {});
    svc::SocketServer server(address, service, {});
    std::thread serving([&server] { server.serve(0); });

    const svc::ResponseHeader uploaded = client.call(predict_request(1));
    ASSERT_EQ(uploaded.status, svc::StatusCode::kOk) << uploaded.message;
    ASSERT_NE(uploaded.skeleton_hash, 0u);
    first_values = uploaded.values;

    // Same container again: sent as a ~100-byte predict-by-hash.
    const svc::ResponseHeader replayed = client.call(predict_request(2));
    ASSERT_EQ(replayed.status, svc::StatusCode::kOk) << replayed.message;
    EXPECT_EQ(replayed.values, first_values);
    EXPECT_EQ(client.stats().replays_by_hash, 1u);
    EXPECT_EQ(client.stats().reuploads, 0u);

    server.stop();
    serving.join();
    service.stop();
  }

  // The server restarts with a *fresh* (memory-only) store: the hash
  // replay answers kNotFound and the client transparently re-uploads.
  {
    svc::Service service;
    service.start([](const svc::ResponseHeader&) {});
    svc::SocketServer server(address, service, {});
    std::thread serving([&server] { server.serve(0); });

    const svc::ResponseHeader after = client.call(predict_request(3));
    ASSERT_EQ(after.status, svc::StatusCode::kOk) << after.message;
    EXPECT_EQ(after.values, first_values);  // same seed, same bytes
    EXPECT_GE(client.stats().reuploads, 1u);
    EXPECT_GE(client.stats().connects, 2u);  // reconnected after the restart

    server.stop();
    serving.join();
    service.stop();
  }
}

TEST(SvcService, DiskStoreServesHashPredictsAcrossServiceRestart) {
  const std::string dir = store_dir("service_restart");
  std::uint64_t hash = 0;
  std::vector<double> first_values;
  {
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::Service service(options);
    svc::Request request;
    request.header = predict_request(1);
    service.submit(std::move(request));
    const std::vector<svc::ResponseHeader> responses = service.drain();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_EQ(responses[0].status, svc::StatusCode::kOk);
    hash = responses[0].skeleton_hash;
    first_values = responses[0].values;
    ASSERT_NE(hash, 0u);
  }
  // The daemon "restarts": a brand-new service on the same store directory
  // serves the predict-by-hash without any re-upload.
  svc::ServiceOptions options;
  options.store_dir = dir;
  svc::Service service(options);
  svc::Request request;
  request.header = hash_request(2, hash);
  service.submit(std::move(request));
  const std::vector<svc::ResponseHeader> responses = service.drain();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].status, svc::StatusCode::kOk)
      << responses[0].message;
  EXPECT_EQ(responses[0].values, first_values);
  EXPECT_EQ(service.skeleton_store().stats().restored, 1u);
}

// ------------------------------------------------------- accept hardening

TEST(SvcTransport, AcceptErrnoClassification) {
  EXPECT_EQ(svc::classify_accept_errno(EINTR), svc::AcceptAction::kRetry);
  EXPECT_EQ(svc::classify_accept_errno(ECONNABORTED),
            svc::AcceptAction::kRetry);
  EXPECT_EQ(svc::classify_accept_errno(EMFILE),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::classify_accept_errno(ENFILE),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::classify_accept_errno(ENOBUFS),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::classify_accept_errno(ENOMEM),
            svc::AcceptAction::kRetryBackoff);
  EXPECT_EQ(svc::classify_accept_errno(EBADF), svc::AcceptAction::kFatal);
  EXPECT_EQ(svc::classify_accept_errno(EINVAL), svc::AcceptAction::kFatal);
}

TEST(SvcChaos, ShortWriteChaosDeliversResponsesIntact) {
  svc::ChaosProfile profile;
  profile.short_write_rate = 1.0;
  profile.short_write_bytes = 3;  // dribble every response out 3B at a time
  svc::ChaosSchedule chaos(11, profile);
  svc::ServiceOptions options;
  options.workers = 1;
  svc::Service service(options);
  service.start([](const svc::ResponseHeader&) {});
  const svc::ListenAddress address = unix_address("shortwrite");
  svc::SessionOptions session_options;
  session_options.chaos = &chaos;
  svc::SocketServer server(address, service, session_options);
  std::thread serving([&server] { server.serve(1); });
  {
    svc::SocketClient client(address);
    client.send_request(predict_request(1));
    svc::ResponseHeader fragmented;
    ASSERT_TRUE(client.read_response(fragmented));
    EXPECT_EQ(fragmented.status, svc::StatusCode::kOk) << fragmented.message;

    client.send_request(predict_request(2));
    svc::ResponseHeader again;
    ASSERT_TRUE(client.read_response(again));
    EXPECT_EQ(again.values, fragmented.values);  // intact, just fragmented
    client.shutdown_send();
  }
  serving.join();
  service.stop();
  const auto site = static_cast<std::size_t>(svc::ChaosSite::kSessionShortWrite);
  EXPECT_GE(chaos.stats().injected[site], 2u);
}

// ------------------------------------------------------ pskd binary, sockets

TEST(SvcDaemon, SocketModeConstructThenHashPredictRoundTrip) {
  const std::string path = socket_path("daemon");
  const std::string err_path = path + ".err";
  const std::string command = binary_dir() + "/tools/pskd --listen=unix:" +
                              path + " --max-conns=1 --deadline=60 2> " +
                              err_path;
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    ::execl("/bin/sh", "sh", "-c", command.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }

  // The daemon announces readiness by binding the socket; retry until the
  // connect sticks.
  std::optional<svc::SocketClient> client;
  svc::ListenAddress address;
  address.kind = svc::ListenAddress::Kind::kUnix;
  address.path = path;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!client && std::chrono::steady_clock::now() < deadline) {
    try {
      client.emplace(address);
    } catch (const ConfigError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(client.has_value()) << "pskd never started listening";

  // Upload a raw trace; the daemon constructs the skeleton server-side...
  client->send_request(construct_request(1));
  svc::ResponseHeader constructed;
  ASSERT_TRUE(client->read_response(constructed));
  ASSERT_EQ(constructed.status, svc::StatusCode::kOk) << constructed.message;
  ASSERT_NE(constructed.skeleton_hash, 0u);
  EXPECT_FALSE(constructed.skeleton_bytes.empty());

  // ...and the follow-up predict names it by content hash alone.
  client->send_request(hash_request(2, constructed.skeleton_hash));
  svc::ResponseHeader predicted;
  ASSERT_TRUE(client->read_response(predicted));
  EXPECT_EQ(predicted.id, 2u);
  ASSERT_EQ(predicted.status, svc::StatusCode::kOk) << predicted.message;
  EXPECT_EQ(predicted.values.size(), 1u);
  client->close();

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::ifstream err(err_path);
  std::ostringstream text;
  text << err.rdbuf();
  EXPECT_NE(text.str().find("listening on unix:"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("served 1 connection(s)"), std::string::npos)
      << text.str();
}

}  // namespace
}  // namespace psk
