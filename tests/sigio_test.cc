// Tests for the signature and skeleton codecs of the PSKARCH1 archive: every
// field survives a round trip, and damaged payloads are typed errors.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "core/framework.h"
#include "sig/compress.h"
#include "skeleton/validate.h"
#include "trace/fold.h"

namespace psk {
namespace {

sig::Signature sample_signature(const char* app = "MG") {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
  sig::CompressOptions options;
  options.target_ratio = 10;
  return sig::compress(trace, options);
}

template <typename T>
std::string encoded(const T& value) {
  std::string payload;
  archive::encode(payload, value);
  return payload;
}

sig::Signature round_trip(const sig::Signature& signature) {
  return archive::decode_signature(encoded(signature)).or_throw();
}

skeleton::Skeleton round_trip(const skeleton::Skeleton& skeleton) {
  return archive::decode_skeleton(encoded(skeleton)).or_throw();
}

/// Expects `payload` to be refused by `decode` whole-cut (empty), torn
/// (three bytes short) and under a future payload version.
template <typename Decode>
void expect_rejected(const std::string& payload, Decode decode,
                     std::uint32_t version) {
  const std::string_view bytes(payload);
  EXPECT_EQ(decode(bytes.substr(0, 0), version).error().code,
            archive::ErrorCode::kTruncated);
  EXPECT_EQ(decode(bytes.substr(0, bytes.size() - 3), version).error().code,
            archive::ErrorCode::kTruncated);
  EXPECT_EQ(decode(bytes, version + 1).error().code,
            archive::ErrorCode::kBadVersion);
  EXPECT_TRUE(decode(bytes, version).ok());
}

void expect_seq_equal(const sig::SigSeq& a, const sig::SigSeq& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind);
    if (a[i].kind == sig::SigNode::Kind::kLoop) {
      EXPECT_EQ(a[i].iterations, b[i].iterations);
      expect_seq_equal(a[i].body, b[i].body);
      continue;
    }
    const sig::SigEvent& x = a[i].event;
    const sig::SigEvent& y = b[i].event;
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.peer, y.peer);
    EXPECT_EQ(x.tag, y.tag);
    EXPECT_DOUBLE_EQ(x.bytes, y.bytes);
    EXPECT_DOUBLE_EQ(x.pre_compute, y.pre_compute);
    EXPECT_DOUBLE_EQ(x.pre_compute_m2, y.pre_compute_m2);
    EXPECT_EQ(x.observations, y.observations);
    EXPECT_DOUBLE_EQ(x.interior_compute, y.interior_compute);
    EXPECT_DOUBLE_EQ(x.mean_duration, y.mean_duration);
    EXPECT_EQ(x.cluster_id, y.cluster_id);
    EXPECT_EQ(x.parts, y.parts);
  }
}

TEST(SignatureIo, RoundTripPreservesStructure) {
  const sig::Signature original = sample_signature();
  const sig::Signature parsed = round_trip(original);
  EXPECT_EQ(parsed.app_name, original.app_name);
  EXPECT_DOUBLE_EQ(parsed.threshold, original.threshold);
  EXPECT_DOUBLE_EQ(parsed.compression_ratio, original.compression_ratio);
  ASSERT_EQ(parsed.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < parsed.ranks.size(); ++r) {
    EXPECT_EQ(parsed.ranks[r].rank, original.ranks[r].rank);
    EXPECT_DOUBLE_EQ(parsed.ranks[r].total_time,
                     original.ranks[r].total_time);
    EXPECT_DOUBLE_EQ(parsed.ranks[r].final_compute,
                     original.ranks[r].final_compute);
    expect_seq_equal(parsed.ranks[r].roots, original.ranks[r].roots);
  }
}

TEST(SignatureIo, RoundTripPreservesExpansion) {
  const sig::Signature original = sample_signature("SP");
  const sig::Signature parsed = round_trip(original);
  for (std::size_t r = 0; r < original.ranks.size(); ++r) {
    EXPECT_EQ(sig::expanded_count(parsed.ranks[r].roots),
              sig::expanded_count(original.ranks[r].roots));
    EXPECT_NEAR(sig::expanded_time(parsed.ranks[r].roots),
                sig::expanded_time(original.ranks[r].roots), 1e-12);
  }
}

TEST(SignatureIo, FileRoundTrip) {
  const sig::Signature original = sample_signature();
  const std::string path = testing::TempDir() + "/psk_sig_test.sig";
  archive::save(path, original).or_throw();
  const sig::Signature loaded = archive::load_signature(path).or_throw();
  EXPECT_EQ(loaded.total_leaves(), original.total_leaves());
}

TEST(SignatureIo, RejectsBadInput) {
  expect_rejected(encoded(sample_signature()), archive::decode_signature,
                  archive::kSignatureVersion);
  EXPECT_EQ(archive::load_signature("/nonexistent/path.sig").error().code,
            archive::ErrorCode::kIo);
}

TEST(SkeletonIo, RoundTripPreservesEverything) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("IS").make(apps::NasClass::kS), "IS");
  const skeleton::Skeleton original =
      framework.make_consistent_skeleton(trace, 8.0);

  const skeleton::Skeleton parsed = round_trip(original);
  EXPECT_EQ(parsed.app_name, original.app_name);
  EXPECT_DOUBLE_EQ(parsed.scaling_factor, original.scaling_factor);
  EXPECT_DOUBLE_EQ(parsed.intended_time, original.intended_time);
  EXPECT_DOUBLE_EQ(parsed.min_good_time, original.min_good_time);
  EXPECT_EQ(parsed.good, original.good);
  ASSERT_EQ(parsed.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < parsed.ranks.size(); ++r) {
    expect_seq_equal(parsed.ranks[r].roots, original.ranks[r].roots);
  }
}

TEST(SkeletonIo, LoadedSkeletonStillReplays) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("SP").make(apps::NasClass::kS), "SP");
  const skeleton::Skeleton original =
      framework.make_consistent_skeleton(trace, 5.0);
  const std::string path = testing::TempDir() + "/psk_skel_test.skel";
  archive::save(path, original).or_throw();
  const skeleton::Skeleton loaded = archive::load_skeleton(path).or_throw();

  EXPECT_TRUE(skeleton::check_consistency(loaded).consistent);
  const double replayed_original =
      framework.run_skeleton(original, scenario::dedicated());
  const double replayed_loaded =
      framework.run_skeleton(loaded, scenario::dedicated());
  EXPECT_DOUBLE_EQ(replayed_original, replayed_loaded);
}

TEST(SkeletonIo, RejectsBadInput) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("IS").make(apps::NasClass::kS), "IS");
  expect_rejected(encoded(framework.make_consistent_skeleton(trace, 8.0)),
                  archive::decode_skeleton, archive::kSkeletonVersion);
}

TEST(SignatureIo, DistributionFieldsSurviveRoundTrip) {
  sig::Signature signature;
  signature.app_name = "dist";
  sig::RankSignature rank;
  sig::SigEvent event;
  event.type = mpi::CallType::kSend;
  event.peer = 1;
  event.pre_compute = 0.5;
  event.pre_compute_m2 = 0.0125;
  event.observations = 17;
  rank.roots.push_back(sig::SigNode::leaf(event));
  signature.ranks.push_back(rank);

  const sig::Signature parsed = round_trip(signature);
  const sig::SigEvent& out = parsed.ranks[0].roots[0].event;
  EXPECT_DOUBLE_EQ(out.pre_compute_m2, 0.0125);
  EXPECT_EQ(out.observations, 17u);
  EXPECT_NEAR(out.pre_compute_stddev(), std::sqrt(0.0125 / 16.0), 1e-12);
}

}  // namespace
}  // namespace psk
