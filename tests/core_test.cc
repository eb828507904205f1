// Tests for the SkeletonFramework facade, consistency validation and the
// experiment driver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "apps/nas.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "trace/fold.h"
#include "skeleton/validate.h"
#include "util/error.h"

namespace psk::core {
namespace {

/// Class S grid keeps these tests fast while exercising every stage.
ExperimentConfig small_config(std::vector<std::string> benchmarks,
                              std::vector<double> sizes) {
  ExperimentConfig config;
  config.benchmarks = std::move(benchmarks);
  config.app_class = apps::NasClass::kS;
  config.skeleton_sizes = std::move(sizes);
  return config;
}

// ----------------------------------------------------------------- facade

TEST(Framework, RecordProducesFoldedTrace) {
  SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("SP").make(apps::NasClass::kS), "SP");
  EXPECT_TRUE(trace::is_fully_folded(trace));
  EXPECT_EQ(trace.rank_count(), 4);
  EXPECT_GT(trace.elapsed(), 0);
}

TEST(Framework, RecordIsDeterministic) {
  SkeletonFramework framework;
  const auto program = apps::find_benchmark("MG").make(apps::NasClass::kS);
  const trace::Trace a = framework.record(program, "MG");
  const trace::Trace b = framework.record(program, "MG");
  EXPECT_DOUBLE_EQ(a.elapsed(), b.elapsed());
}

TEST(Framework, ConstructPipeline) {
  SkeletonFramework framework;
  const skeleton::Skeleton skeleton = framework.construct(
      apps::find_benchmark("SP").make(apps::NasClass::kS), "SP", 0.05);
  EXPECT_GT(skeleton.scaling_factor, 1.0);
  EXPECT_NEAR(skeleton.intended_time, 0.05, 0.01);
}

TEST(Framework, DedicatedRunsAreQuiet) {
  // run_app under the dedicated scenario must be close to the traced time.
  SkeletonFramework framework;
  const auto program = apps::find_benchmark("MG").make(apps::NasClass::kS);
  const trace::Trace trace = framework.record(program, "MG");
  const double untraced = framework.run_app(program, scenario::dedicated());
  EXPECT_NEAR(untraced, trace.elapsed(), trace.elapsed() * 0.05);
}

TEST(Framework, ScenarioRunsSlower) {
  SkeletonFramework framework;
  const auto program = apps::find_benchmark("SP").make(apps::NasClass::kS);
  const double dedicated =
      framework.run_app(program, scenario::dedicated());
  const double shared =
      framework.run_app(program, scenario::find_scenario("cpu-all-nodes"));
  EXPECT_GT(shared, dedicated);
}

TEST(Framework, SeedOffsetsChangeScenarioMeasurements) {
  SkeletonFramework framework;
  const auto program = apps::find_benchmark("MG").make(apps::NasClass::kS);
  const auto& scenario = scenario::find_scenario("cpu-one-node");
  const double a = framework.run_app(program, scenario, 1);
  const double b = framework.run_app(program, scenario, 2);
  EXPECT_NE(a, b);
  // But each offset is reproducible.
  EXPECT_DOUBLE_EQ(framework.run_app(program, scenario, 1), a);
}

// The consistency ladder runs its own threshold schedule, so it rejects a
// schedule that never starts or never ends before its first compression.
void expect_schedule_rejected(const sig::CompressOptions& compress) {
  FrameworkOptions options;
  options.compress = compress;
  const SkeletonFramework framework(options);
  const trace::Trace trace = SkeletonFramework().record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  try {
    framework.make_consistent_skeleton(trace, 4.0);
    ADD_FAILURE() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("make_consistent_skeleton"),
              std::string::npos)
        << error.what();
  }
}

TEST(Framework, ConsistentSkeletonRejectsNegativeMaxThreshold) {
  sig::CompressOptions compress;
  compress.max_threshold = -0.01;
  expect_schedule_rejected(compress);
}

TEST(Framework, ConsistentSkeletonRejectsNanMaxThreshold) {
  sig::CompressOptions compress;
  compress.max_threshold = std::nan("");
  expect_schedule_rejected(compress);
}

TEST(Framework, ConsistentSkeletonRejectsInfiniteThresholdStep) {
  sig::CompressOptions compress;
  compress.threshold_step = std::numeric_limits<double>::infinity();
  expect_schedule_rejected(compress);
}

// ------------------------------------------------------------- validation

TEST(Validate, ConsistentSkeletonPasses) {
  SkeletonFramework framework;
  const skeleton::Skeleton skeleton = framework.construct(
      apps::find_benchmark("SP").make(apps::NasClass::kS), "SP", 0.05);
  const skeleton::ConsistencyReport report =
      skeleton::check_consistency(skeleton);
  EXPECT_TRUE(report.consistent) << report.detail;
}

TEST(Validate, DetectsMismatchedCounts) {
  skeleton::Skeleton skeleton;
  sig::RankSignature rank0;
  rank0.rank = 0;
  sig::SigEvent send;
  send.type = mpi::CallType::kSend;
  send.peer = 1;
  rank0.roots.push_back(sig::SigNode::loop(
      3, sig::SigSeq{sig::SigNode::leaf(send)}));
  sig::RankSignature rank1;
  rank1.rank = 1;
  sig::SigEvent recv;
  recv.type = mpi::CallType::kRecv;
  recv.peer = 0;
  rank1.roots.push_back(sig::SigNode::loop(
      2, sig::SigSeq{sig::SigNode::leaf(recv)}));
  skeleton.ranks = {rank0, rank1};

  const skeleton::ConsistencyReport report =
      skeleton::check_consistency(skeleton);
  EXPECT_FALSE(report.consistent);
  EXPECT_EQ(report.mismatched_channels, 1u);
  EXPECT_NE(report.detail.find("3 sends vs 2 recvs"), std::string::npos);
}

TEST(Validate, DetectsCollectiveImbalance) {
  skeleton::Skeleton skeleton;
  sig::RankSignature rank0;
  rank0.rank = 0;
  sig::SigEvent barrier;
  barrier.type = mpi::CallType::kBarrier;
  rank0.roots.push_back(sig::SigNode::leaf(barrier));
  sig::RankSignature rank1;  // no barrier
  rank1.rank = 1;
  skeleton.ranks = {rank0, rank1};

  EXPECT_FALSE(skeleton::check_consistency(skeleton).consistent);
}

TEST(Validate, EveryBenchmarkSkeletonConsistentAcrossSizes) {
  ExperimentDriver driver(
      small_config({"BT", "CG", "IS", "LU", "MG", "SP"}, {0.1, 0.02}));
  for (const auto& def : apps::suite()) {
    for (double size : {0.1, 0.02}) {
      const skeleton::Skeleton& skeleton =
          driver.skeleton_for_size(def.name, size);
      const auto report = skeleton::check_consistency(skeleton);
      EXPECT_TRUE(report.consistent)
          << def.name << " size " << size << ": " << report.detail;
    }
  }
}

// ----------------------------------------------------------------- driver

TEST(Driver, CachesTraces) {
  ExperimentDriver driver(small_config({"MG"}, {0.1}));
  const trace::Trace& a = driver.app_trace("MG");
  const trace::Trace& b = driver.app_trace("MG");
  EXPECT_EQ(&a, &b);
}

TEST(Driver, PredictionRecordIsComplete) {
  ExperimentDriver driver(small_config({"SP"}, {0.1}));
  const PredictionRecord record =
      driver.predict("SP", 0.1, scenario::find_scenario("cpu-all-nodes"));
  EXPECT_EQ(record.app, "SP");
  EXPECT_GT(record.scaling_factor, 1.0);
  EXPECT_GT(record.app_dedicated, 0);
  EXPECT_GT(record.skeleton_dedicated, 0);
  EXPECT_GT(record.skeleton_scenario, record.skeleton_dedicated * 0.5);
  EXPECT_GT(record.app_scenario, record.app_dedicated);
  EXPECT_GT(record.predicted, 0);
  EXPECT_GE(record.error_percent, 0);
}

TEST(Driver, PredictionBeatsWildGuessing) {
  // Headline property at class S: skeleton predictions land within 35% for
  // every scenario.  (Class B does far better -- see the fig3 bench; class S
  // runs are fractions of a second and latency-dominated, so a single
  // bandwidth-flutter draw can move a tiny skeleton by ~20%.)
  ExperimentDriver driver(small_config({"SP", "MG"}, {0.05}));
  for (const char* app : {"SP", "MG"}) {
    for (const auto& scenario : scenario::paper_scenarios()) {
      const PredictionRecord record = driver.predict(app, 0.05, scenario);
      EXPECT_LT(record.error_percent, 35.0)
          << app << " under " << scenario.name;
    }
  }
}

TEST(Driver, GridCoversEverything) {
  ExperimentDriver driver(small_config({"MG", "IS"}, {0.1, 0.05}));
  const auto records = driver.run_grid();
  EXPECT_EQ(records.size(), 2u * 2u * 5u);
  std::set<std::string> scenarios;
  for (const auto& record : records) scenarios.insert(record.scenario);
  EXPECT_EQ(scenarios.size(), 5u);
  EXPECT_GT(mean_error(records), 0.0);
}

TEST(Driver, ActivityBreakdownsComparable) {
  // Figure 2's claim: skeleton compute/MPI ratio is broadly similar to the
  // application's.
  ExperimentDriver driver(small_config({"CG"}, {0.1}));
  const auto app = driver.app_activity("CG");
  const auto skel = driver.skeleton_activity("CG", 0.1);
  EXPECT_NEAR(skel.mpi_fraction, app.mpi_fraction, 0.20);
}

TEST(Driver, GoodEstimateStableAcrossCalls) {
  ExperimentDriver driver(small_config({"IS"}, {0.1}));
  const auto& a = driver.good_estimate("IS");
  const auto& b = driver.good_estimate("IS");
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.min_good_time, 0);
}

TEST(Driver, BaselinePredictorsRun) {
  ExperimentDriver driver(small_config({"MG", "IS"}, {0.1}));
  const auto& scenario = scenario::find_scenario("cpu-and-net");
  const PredictionRecord class_s = driver.predict_with_class_s("MG", scenario);
  EXPECT_GT(class_s.predicted, 0);
  const PredictionRecord average = driver.predict_with_average("MG", scenario);
  EXPECT_GT(average.predicted, 0);
  EXPECT_GE(average.error_percent, 0);
}

TEST(Driver, MeanErrorOfEmptyIsZero) {
  EXPECT_EQ(mean_error({}), 0.0);
}

}  // namespace
}  // namespace psk::core
