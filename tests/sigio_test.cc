// Tests for signature and skeleton text serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/nas.h"
#include "core/framework.h"
#include "sig/compress.h"
#include "sig/io.h"
#include "skeleton/io.h"
#include "skeleton/validate.h"
#include "trace/fold.h"
#include "util/error.h"

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
  const sig::Signature parsed =
      sig::signature_from_string(sig::signature_to_string(original));
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
  const sig::Signature parsed =
      sig::signature_from_string(sig::signature_to_string(original));
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
  sig::save_signature(path, original);
  const sig::Signature loaded = sig::load_signature(path);
  EXPECT_EQ(loaded.total_leaves(), original.total_leaves());
}

TEST(SignatureIo, RejectsBadInput) {
  EXPECT_THROW(sig::signature_from_string("nope\n"), FormatError);
  EXPECT_THROW(sig::signature_from_string("psk-signature 1\napp x\n"),
               FormatError);
  EXPECT_THROW(
      sig::signature_from_string("psk-signature 1\napp x\nthreshold 0\n"
                                 "ratio 1\nranks 1\nrank 0 1 0 1\nE bogus\n"),
      FormatError);
  EXPECT_THROW(sig::load_signature("/nonexistent/path.sig"), ConfigError);
}

TEST(SkeletonIo, RoundTripPreservesEverything) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("IS").make(apps::NasClass::kS), "IS");
  const skeleton::Skeleton original =
      framework.make_consistent_skeleton(trace, 8.0);

  const skeleton::Skeleton parsed =
      skeleton::skeleton_from_string(skeleton::skeleton_to_string(original));
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
  skeleton::save_skeleton(path, original);
  const skeleton::Skeleton loaded = skeleton::load_skeleton(path);

  EXPECT_TRUE(skeleton::check_consistency(loaded).consistent);
  const double replayed_original =
      framework.run_skeleton(original, scenario::dedicated());
  const double replayed_loaded =
      framework.run_skeleton(loaded, scenario::dedicated());
  EXPECT_DOUBLE_EQ(replayed_original, replayed_loaded);
}

TEST(SkeletonIo, RejectsBadInput) {
  EXPECT_THROW(skeleton::skeleton_from_string("nope\n"), FormatError);
  EXPECT_THROW(skeleton::skeleton_from_string("psk-skeleton 1\napp x\n"),
               FormatError);
}

TEST(SkeletonIo, RanksCountMustBeExactDecimal) {
  // One parser serves the signature and skeleton "ranks N" lines (and the
  // skeleton salvor): only plain decimals up to 1 << 16.  The skeleton
  // reader used to read the count as a double and cast it to size_t, so
  // "0.5", "1e300" and "0x0" loaded as empty skeletons ("1e300" and "-1"
  // through an undefined cast), and the signature reader took "2garbage"
  // as 2.
  const std::string skeleton_head =
      "psk-skeleton 1\napp x\nk 1\nintended 1\nmin_good 1\ngood 1\n";
  const std::string signature_head =
      "psk-signature 1\napp x\nthreshold 0\nratio 1\n";
  for (const char* count : {"-1", "0.5", "1e300", "0x0", "2garbage", "65537"}) {
    EXPECT_THROW(sig::parse_rank_count(count), FormatError) << count;
    EXPECT_THROW(skeleton::skeleton_from_string(skeleton_head + "ranks " +
                                                count + "\n"),
                 FormatError)
        << count;
    EXPECT_THROW(sig::signature_from_string(signature_head + "ranks " +
                                            count + "\n"),
                 FormatError)
        << count;
  }
  EXPECT_EQ(sig::parse_rank_count("0"), 0u);
  EXPECT_EQ(sig::parse_rank_count("65536"), 65536u);
  EXPECT_EQ(skeleton::skeleton_from_string(skeleton_head + "ranks 0\n")
                .ranks.size(),
            0u);
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

  const sig::Signature parsed =
      sig::signature_from_string(sig::signature_to_string(signature));
  const sig::SigEvent& out = parsed.ranks[0].roots[0].event;
  EXPECT_DOUBLE_EQ(out.pre_compute_m2, 0.0125);
  EXPECT_EQ(out.observations, 17u);
  EXPECT_NEAR(out.pre_compute_stddev(), std::sqrt(0.0125 / 16.0), 1e-12);
}

}  // namespace
}  // namespace psk
