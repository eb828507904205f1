// Tests for skeleton scaling, construction, replay and prediction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "mpi/world.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "skeleton/scale.h"
#include "skeleton/skeleton.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace psk::apps {

// Prints a suite parameter as its benchmark name. Without this gtest prints
// the pointer, so the names --gtest_list_tests reports (and the ctest names
// discovered from them) change with the binary's load address.
static void PrintTo(const BenchmarkDef* def, std::ostream* os) {
  *os << def->name;
}

}  // namespace psk::apps

namespace psk::skeleton {
namespace {

using sig::SigEvent;
using sig::SigNode;
using sig::SigSeq;

SigEvent leaf_event(int id, double pre, double bytes = 1000) {
  SigEvent event;
  event.type = mpi::CallType::kSend;
  event.peer = 1;
  event.cluster_id = id;
  event.pre_compute = pre;
  event.bytes = bytes;
  event.mean_duration = 0.001;
  return event;
}

/// Total "represented" compute+bytes of a sequence (for scaling checks).
struct Totals {
  double compute = 0;
  double bytes = 0;
};
Totals totals_of(const SigSeq& seq) {
  Totals totals;
  for (const SigEvent& event : sig::expand(seq)) {
    totals.compute += event.pre_compute + event.interior_compute;
    totals.bytes += event.bytes;
  }
  return totals;
}

// ------------------------------------------------------------------ scaling

TEST(Scale, UnityIsIdentity) {
  SigSeq seq;
  seq.push_back(SigNode::leaf(leaf_event(0, 2.0)));
  const SigSeq scaled = scale_sequence(seq, ScaleSpec{1.0, {}});
  EXPECT_EQ(sig::expanded_count(scaled), 1u);
  EXPECT_DOUBLE_EQ(sig::expand(scaled)[0].pre_compute, 2.0);
}

TEST(Scale, LoopIterationsDividedByK) {
  SigSeq body;
  body.push_back(SigNode::leaf(leaf_event(0, 1.0)));
  SigSeq seq;
  seq.push_back(SigNode::loop(100, body));

  const SigSeq scaled = scale_sequence(seq, ScaleSpec{10.0, {}});
  ASSERT_FALSE(scaled.empty());
  EXPECT_EQ(scaled[0].kind, SigNode::Kind::kLoop);
  EXPECT_EQ(scaled[0].iterations, 10u);
  // 100/10: no remainder, body unchanged (full-fidelity iterations).
  EXPECT_EQ(sig::expanded_count(scaled), 10u);
  EXPECT_DOUBLE_EQ(sig::expand(scaled)[0].pre_compute, 1.0);
}

TEST(Scale, RemainderUnrolledAndGrouped) {
  // 25 iterations / K=10 -> loop of 2 + remainder 5 -> 5 leftover ops each
  // scaled by 10 (represented as a count-5 loop of the scaled op).
  SigSeq body;
  body.push_back(SigNode::leaf(leaf_event(0, 1.0, 1000)));
  SigSeq seq;
  seq.push_back(SigNode::loop(25, body));

  const SigSeq scaled = scale_sequence(seq, ScaleSpec{10.0, {}});
  const Totals totals = totals_of(scaled);
  // Represented totals: 25/10 = 2.5 of the original body.
  EXPECT_NEAR(totals.compute, 2.5, 1e-9);
  EXPECT_NEAR(totals.bytes, 2500, 1e-6);
  // But the leftover ops kept their count: 2 full + 5 tiny = 7 events.
  EXPECT_EQ(sig::expanded_count(scaled), 7u);
}

TEST(Scale, RemainderGroupsOfKCollapse) {
  // 15 iterations of a 2-op body / K=4 -> loop 3 (12 iters) + remainder 3:
  // per op, total 3 -> 0 full + 3 leftover scaled ops.
  SigSeq body;
  body.push_back(SigNode::leaf(leaf_event(0, 1.0)));
  body.push_back(SigNode::leaf(leaf_event(1, 0.5)));
  SigSeq seq;
  seq.push_back(SigNode::loop(15, body));

  const SigSeq scaled = scale_sequence(seq, ScaleSpec{4.0, {}});
  const Totals totals = totals_of(scaled);
  EXPECT_NEAR(totals.compute, 1.5 * 15.0 / 4.0, 1e-9);
}

TEST(Scale, LoopSmallerThanKScalesInside) {
  // 4 iterations, K=16: one iteration whose body is scaled by 4.
  SigSeq body;
  body.push_back(SigNode::leaf(leaf_event(0, 8.0, 8000)));
  SigSeq seq;
  seq.push_back(SigNode::loop(4, body));

  const SigSeq scaled = scale_sequence(seq, ScaleSpec{16.0, {}});
  ASSERT_EQ(scaled.size(), 1u);
  EXPECT_EQ(scaled[0].iterations, 1u);
  const Totals totals = totals_of(scaled);
  EXPECT_NEAR(totals.compute, 4 * 8.0 / 16.0, 1e-9);
  EXPECT_NEAR(totals.bytes, 4 * 8000.0 / 16.0, 1e-6);
}

TEST(Scale, NestedLoopsDistributeK) {
  // 20 outer x 30 inner, K=100: outer 20 < 100 -> residual 5 into the
  // inner loop: 30/5 = 6 full inner iterations.
  SigSeq inner_body;
  inner_body.push_back(SigNode::leaf(leaf_event(0, 0.1)));
  SigSeq outer_body;
  outer_body.push_back(SigNode::loop(30, inner_body));
  SigSeq seq;
  seq.push_back(SigNode::loop(20, outer_body));

  const SigSeq scaled = scale_sequence(seq, ScaleSpec{100.0, {}});
  const Totals totals = totals_of(scaled);
  EXPECT_NEAR(totals.compute, 20 * 30 * 0.1 / 100.0, 1e-9);
  // The inner loop survives with full-fidelity events.
  const std::vector<SigEvent> expanded = sig::expand(scaled);
  EXPECT_DOUBLE_EQ(expanded[0].pre_compute, 0.1);
}

TEST(Scale, TopLevelLeafParameterScaled) {
  SigSeq seq;
  seq.push_back(SigNode::leaf(leaf_event(0, 6.0, 9000)));
  const SigSeq scaled = scale_sequence(seq, ScaleSpec{3.0, {}});
  const std::vector<SigEvent> expanded = sig::expand(scaled);
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_NEAR(expanded[0].pre_compute, 2.0, 1e-12);
  EXPECT_NEAR(expanded[0].bytes, 3000.0, 1e-9);
}

TEST(Scale, ByteScalingCanBeDisabled) {
  SigSeq seq;
  seq.push_back(SigNode::leaf(leaf_event(0, 6.0, 9000)));
  ScaleOptions options;
  options.scale_message_bytes = false;
  const SigSeq scaled = scale_sequence(seq, ScaleSpec{3.0, options});
  EXPECT_NEAR(sig::expand(scaled)[0].bytes, 9000.0, 1e-9);
  EXPECT_NEAR(sig::expand(scaled)[0].pre_compute, 2.0, 1e-12);
}

TEST(Scale, RepresentedWorkScalesLinearly) {
  // Property: for a loop-heavy sequence, totals shrink by ~K for many K.
  SigSeq body;
  body.push_back(SigNode::leaf(leaf_event(0, 0.5, 2048)));
  body.push_back(SigNode::leaf(leaf_event(1, 0.25, 512)));
  SigSeq seq;
  seq.push_back(SigNode::loop(240, body));
  const Totals original = totals_of(seq);

  for (double k : {2.0, 3.0, 7.0, 16.0, 60.0, 240.0, 1000.0}) {
    const Totals scaled = totals_of(scale_sequence(seq, ScaleSpec{k, {}}));
    EXPECT_NEAR(scaled.compute * k, original.compute,
                original.compute * 0.25)
        << "K=" << k;
  }
}

TEST(Scale, RejectsBadK) {
  SigSeq seq;
  EXPECT_THROW(scale_sequence(seq, ScaleSpec{0.5, {}}), psk::ConfigError);
}

// --------------------------------------------------------------- pipelines

sig::Signature signature_of(const char* name, apps::NasClass cls,
                            double target_ratio) {
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  trace::Trace trace = trace::record_run(
      world, apps::find_benchmark(name).make(cls), name);
  trace::fold_nonblocking(trace);
  sig::CompressOptions options;
  options.target_ratio = target_ratio;
  return sig::compress(trace, options);
}

double dedicated_run(const Skeleton& skeleton) {
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  return run_skeleton(world, skeleton);
}

TEST(Build, IntendedTimeFollowsK) {
  const sig::Signature signature = signature_of("SP", apps::NasClass::kS, 10);
  const Skeleton skeleton = build_skeleton(signature, 5.0);
  EXPECT_NEAR(skeleton.intended_time, signature.elapsed() / 5.0, 1e-9);
  EXPECT_EQ(skeleton.rank_count(), 4);
}

TEST(Build, RejectsNonFiniteK) {
  // `psk skeleton --target=0` used to reach here as K = inf and write a
  // skeleton with an intended runtime of 0 s.
  const sig::Signature signature = signature_of("SP", apps::NasClass::kS, 10);
  EXPECT_THROW(
      build_skeleton(signature, std::numeric_limits<double>::infinity()),
      psk::ConfigError);
  EXPECT_THROW(build_skeleton(signature, std::nan("")), psk::ConfigError);
}

class EveryBenchmarkSkeleton
    : public ::testing::TestWithParam<const apps::BenchmarkDef*> {};

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmarkSkeleton,
    ::testing::Values(&apps::suite()[0], &apps::suite()[1], &apps::suite()[2],
                      &apps::suite()[3], &apps::suite()[4], &apps::suite()[5]),
    [](const ::testing::TestParamInfo<const apps::BenchmarkDef*>& info) {
      return std::string(info.param->name);
    });

TEST_P(EveryBenchmarkSkeleton, ReplaysWithoutDeadlockAcrossK) {
  const sig::Signature signature =
      signature_of(GetParam()->name, apps::NasClass::kS, 10);
  for (double k : {1.0, 2.0, 5.0, 20.0, 100.0}) {
    const Skeleton skeleton = build_skeleton(signature, k);
    EXPECT_NO_THROW({ dedicated_run(skeleton); })
        << GetParam()->name << " K=" << k;
  }
}

TEST_P(EveryBenchmarkSkeleton, DedicatedTimeTracksIntendedTime) {
  const sig::Signature signature =
      signature_of(GetParam()->name, apps::NasClass::kS, 10);
  const Skeleton skeleton = build_skeleton(signature, 5.0);
  const double actual = dedicated_run(skeleton);
  // Within 35%: remainder unrolling and unscaled latency make the skeleton
  // deviate from intended (more for small, latency-bound class S runs).
  EXPECT_NEAR(actual, skeleton.intended_time, skeleton.intended_time * 0.35)
      << GetParam()->name;
}

TEST(GoodSkeleton, DominantLoopBodySetsMinimum) {
  const sig::Signature signature = signature_of("IS", apps::NasClass::kS, 5);
  const GoodSkeletonEstimate estimate = estimate_good_skeleton(signature);
  // IS: 10 iterations dominate the run; one iteration is about a tenth.
  EXPECT_GT(estimate.min_good_time, signature.elapsed() / 50.0);
  EXPECT_LT(estimate.min_good_time, signature.elapsed() / 2.0);
  EXPECT_GT(estimate.dominant_coverage, 0.4);
}

TEST(GoodSkeleton, FlagFollowsIntendedTime) {
  const sig::Signature signature = signature_of("IS", apps::NasClass::kS, 5);
  const GoodSkeletonEstimate estimate = estimate_good_skeleton(signature);
  // K = elapsed / target: twice and a quarter of the minimum good time.
  const Skeleton large = build_skeleton(
      signature, signature.elapsed() / (estimate.min_good_time * 2.0));
  EXPECT_TRUE(large.good);
  const Skeleton tiny = build_skeleton(
      signature, signature.elapsed() / (estimate.min_good_time / 4.0));
  EXPECT_FALSE(tiny.good);
  EXPECT_DOUBLE_EQ(tiny.min_good_time, large.min_good_time);
}

TEST(Replay, SkeletonMatchesAppActivityBreakdown) {
  // Figure 2's property: compute/MPI split of the skeleton resembles the
  // app's.  Checked loosely on CG class S.
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  trace::Trace app_trace = trace::record_run(
      world, apps::find_benchmark("CG").make(apps::NasClass::kS), "CG");
  const trace::ActivityBreakdown app_activity =
      trace::activity_breakdown(app_trace);

  trace::fold_nonblocking(app_trace);
  sig::CompressOptions options;
  options.target_ratio = 10;
  const Skeleton skeleton =
      build_skeleton(sig::compress(app_trace, options), 5.0);

  sim::Machine machine2(sim::ClusterConfig::paper_testbed());
  mpi::World world2(machine2, 4);
  trace::Trace skel_trace =
      trace::record_run(world2, skeleton_program(skeleton), "CG-skel");
  const trace::ActivityBreakdown skel_activity =
      trace::activity_breakdown(skel_trace);

  EXPECT_NEAR(skel_activity.mpi_fraction, app_activity.mpi_fraction, 0.15);
}

TEST(Replay, WorldSizeMismatchThrows) {
  const sig::Signature signature = signature_of("SP", apps::NasClass::kS, 10);
  const Skeleton skeleton = build_skeleton(signature, 5.0);
  sim::Machine machine(sim::ClusterConfig::paper_testbed(2));
  mpi::World world(machine, 2);
  EXPECT_THROW(run_skeleton(world, skeleton), psk::ConfigError);
}

// ------------------------------------------------------------- prediction

TEST(Predict, RatioAndError) {
  Calibration calibration;
  calibration.app_dedicated_time = 100.0;
  calibration.skeleton_dedicated_time = 2.0;
  EXPECT_DOUBLE_EQ(calibration.measured_scaling_ratio(), 50.0);
  EXPECT_DOUBLE_EQ(predict_app_time(calibration, 3.0), 150.0);
  EXPECT_DOUBLE_EQ(prediction_error_percent(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(prediction_error_percent(90.0, 100.0), 10.0);
  EXPECT_THROW(prediction_error_percent(1.0, 0.0), psk::ConfigError);
}

TEST(Predict, EndToEndCpuSharingScenario) {
  // The headline pipeline: trace SP, build a skeleton, calibrate, predict
  // the app's time under CPU sharing on all nodes, compare to truth.
  const char* name = "SP";
  const sig::Signature signature = signature_of(name, apps::NasClass::kS, 10);
  const Skeleton skeleton = build_skeleton(signature, 8.0);

  Calibration calibration;
  calibration.app_dedicated_time = signature.elapsed();
  calibration.skeleton_dedicated_time = dedicated_run(skeleton);

  const auto add_load = [](sim::Machine& machine) {
    for (int n = 0; n < 4; ++n) machine.node(n).add_load(2);
  };

  sim::Machine skel_machine(sim::ClusterConfig::paper_testbed());
  add_load(skel_machine);
  mpi::World skel_world(skel_machine, 4);
  const double skel_shared = run_skeleton(skel_world, skeleton);

  sim::Machine app_machine(sim::ClusterConfig::paper_testbed());
  add_load(app_machine);
  mpi::World app_world(app_machine, 4);
  app_world.launch(apps::find_benchmark(name).make(apps::NasClass::kS));
  const double app_shared = app_world.run();

  const double predicted = predict_app_time(calibration, skel_shared);
  EXPECT_LT(prediction_error_percent(predicted, app_shared), 12.0);
}

}  // namespace
}  // namespace psk::skeleton
