// Tests for the psk::obs observability layer: metrics instruments, the
// simulated-time span tracer, the wall-clock phase profiler, and the
// end-to-end properties the layer promises -- zero effect on simulation
// results when attached, and bit-identical dumps regardless of --jobs.
#include <fstream>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "gtest/gtest.h"
#include "mpi/world.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "scenario/scenario.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/network.h"

namespace psk {
namespace {

// ------------------------------------------------------------- instruments

TEST(Metrics, CounterAccumulates) {
  obs::Counter counter;
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  counter.add(1.5);
  counter.add(2.5);
  EXPECT_DOUBLE_EQ(counter.value(), 4.0);
}

TEST(Metrics, GaugeTimeWeightedIntegral) {
  obs::Gauge gauge;
  gauge.set(1.0, 2.0);  // 0 over [0,1)
  gauge.set(3.0, 4.0);  // 2 over [1,3)
  // 4 over [3,5): integral = 0 + 4 + 8 = 12, mean = 12/5.
  EXPECT_DOUBLE_EQ(gauge.integral(5.0), 12.0);
  EXPECT_DOUBLE_EQ(gauge.mean(5.0), 2.4);
  EXPECT_DOUBLE_EQ(gauge.max(), 4.0);
  EXPECT_DOUBLE_EQ(gauge.last(), 4.0);
}

TEST(Metrics, TimeHistogramChargesPreviousBucket) {
  obs::TimeHistogram hist({1.0, 2.0});
  hist.observe(1.0, 2.0);  // value 0 (bucket le_1) over [0,1)
  hist.observe(4.0, 5.0);  // value 2 (bucket le_2) over [1,4)
  const std::vector<double> seconds = hist.bucket_seconds(6.0);
  // value 5 (overflow) over [4,6).
  ASSERT_EQ(seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(seconds[0], 1.0);
  EXPECT_DOUBLE_EQ(seconds[1], 3.0);
  EXPECT_DOUBLE_EQ(seconds[2], 2.0);
}

TEST(Metrics, KvDumpIsSortedAndLabelled) {
  obs::MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(1);
  registry.gauge("load").set(1.0, 3.0);
  registry.set_info("scenario", "dedicated");
  const std::string kv = registry.to_kv(2.0);
  EXPECT_NE(kv.find("info.scenario=dedicated\n"), std::string::npos);
  EXPECT_NE(kv.find("a.count=1\n"), std::string::npos);
  EXPECT_NE(kv.find("load.mean="), std::string::npos);
  EXPECT_NE(kv.find("load.max=3\n"), std::string::npos);
  // Sorted: a.count before b.count.
  EXPECT_LT(kv.find("a.count="), kv.find("b.count="));
}

TEST(Metrics, HandlesAreStableAcrossInsertions) {
  obs::MetricsRegistry registry;
  obs::Counter* first = &registry.counter("first");
  for (int i = 0; i < 100; ++i) {
    registry.counter("extra." + std::to_string(i));
  }
  first->add(1);
  EXPECT_DOUBLE_EQ(registry.counter("first").value(), 1.0);
  EXPECT_EQ(first, &registry.counter("first"));
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, EmitsCompleteEventsInMicroseconds) {
  obs::Tracer tracer;
  tracer.set_process_name(0, "ranks");
  tracer.complete(0, 1, "compute", "compute", 0.5, 1.5);
  const std::string json = tracer.to_chrome_json(2.0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
}

TEST(Tracer, OpenSpanClosedAtExportTime) {
  obs::Tracer tracer;
  const obs::Tracer::SpanId id = tracer.begin(1, 0, "cpu-stall", "fault", 1.0);
  EXPECT_NE(id, obs::Tracer::kNoSpan);
  // Never ended: the export closes it at end_time 3.0 -> dur 2 s.
  const std::string json = tracer.to_chrome_json(3.0);
  EXPECT_NE(json.find("\"name\":\"cpu-stall\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos);
}

// ----------------------------------------------------------- phase profiler

TEST(PhaseProfiler, ScopeAccumulatesAndRenders) {
  obs::PhaseProfiler profiler;
  profiler.add("fold", 0.25);
  profiler.add("fold", 0.25);
  { obs::PhaseProfiler::Scope scope(&profiler, "cluster"); }
  const auto snapshot = profiler.snapshot();
  EXPECT_EQ(snapshot.at("fold").calls, 2u);
  EXPECT_DOUBLE_EQ(snapshot.at("fold").seconds, 0.5);
  EXPECT_EQ(snapshot.at("cluster").calls, 1u);
  const std::string rendered = profiler.render();
  EXPECT_NE(rendered.find("fold"), std::string::npos);
  EXPECT_NE(rendered.find("cluster"), std::string::npos);
}

TEST(PhaseProfiler, NullScopeIsNoOp) {
  obs::PhaseProfiler::Scope scope(nullptr, "ignored");
}

// ------------------------------------------------- component instrumentation

TEST(ObsCpu, BusySecondsAndStallSpans) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  obs::Recorder recorder;
  node.attach_obs(&recorder, 0);

  engine.at(1.0, [&] { node.push_stall(); });
  engine.at(1.5, [&] { node.pop_stall(); });
  node.submit(0.5, [] {});
  engine.run();

  EXPECT_GT(recorder.metrics().counter("node.0.busy_seconds").value(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.metrics().counter("node.0.stall_seconds").value(),
                   0.5);
  const std::string json =
      recorder.tracer().to_chrome_json(engine.now());
  EXPECT_NE(json.find("\"name\":\"cpu-stall\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
}

TEST(ObsNetwork, TxBytesAndLinkFaultSpans) {
  sim::Engine engine;
  sim::Network network(engine, sim::NetworkConfig{.node_count = 4,
                                                 .bandwidth_bps = 1e8,
                                                 .latency = 50e-6,
                                                 .local_latency = 0});
  obs::Recorder recorder;
  network.attach_obs(&recorder);

  network.transfer(0, 1, 10'000, [] {});
  engine.at(0.001, [&] { network.push_link_fault(2); });
  engine.at(0.002, [&] { network.pop_link_fault(2); });
  engine.run();

  EXPECT_DOUBLE_EQ(recorder.metrics().counter("net.node.0.tx_bytes").value(),
                   10'000.0);
  EXPECT_GT(recorder.metrics().gauge("net.active_flows").max(), 0.0);
  const std::string json = recorder.tracer().to_chrome_json(engine.now());
  EXPECT_NE(json.find("\"name\":\"link-down\""), std::string::npos);
}

TEST(ObsMachine, FaultWindowsAppearAsSpans) {
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  obs::Recorder recorder;
  machine.attach_obs(&recorder);
  sim::Engine& engine = machine.engine();
  engine.at(1.0, [&] { machine.crash_node(1); });
  engine.at(2.0, [&] { machine.restore_node(1); });
  engine.run();

  // A crash stalls the node's CPUs and takes its link down: both windows
  // must appear on the timeline.
  const std::string json = recorder.tracer().to_chrome_json(engine.now());
  EXPECT_NE(json.find("\"name\":\"cpu-stall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"link-down\""), std::string::npos);
  EXPECT_DOUBLE_EQ(recorder.metrics().counter("node.1.stall_seconds").value(),
                   1.0);
}

// --------------------------------------------------------------- end to end

double run_mg(obs::Recorder* recorder) {
  core::SkeletonFramework framework;
  return framework.run_app(apps::find_benchmark("MG").make(apps::NasClass::kS),
                           scenario::dedicated(), 0, recorder);
}

TEST(ObsEndToEnd, AttachingRecorderDoesNotPerturbSimulation) {
  const double bare = run_mg(nullptr);
  obs::Recorder recorder;
  const double observed = run_mg(&recorder);
  EXPECT_EQ(bare, observed);  // bit-identical, not just close
  EXPECT_GT(recorder.tracer().span_count(), 0u);
}

TEST(ObsEndToEnd, WorldRunProducesPerRankActivityMetrics) {
  obs::Recorder recorder;
  const double elapsed = run_mg(&recorder);
  const std::string kv = recorder.metrics().to_kv(elapsed);
  EXPECT_NE(kv.find("info.ranks=4"), std::string::npos);
  EXPECT_NE(kv.find("rank.0.compute_seconds="), std::string::npos);
  EXPECT_NE(kv.find("rank.3.wait_seconds="), std::string::npos);
  EXPECT_NE(kv.find("node.0.busy_seconds="), std::string::npos);
  EXPECT_NE(kv.find("net.node.0.tx_bytes="), std::string::npos);
  const std::string json = recorder.tracer().to_chrome_json(elapsed);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Allreduce\""), std::string::npos);
}

core::ExperimentConfig small_config(int jobs) {
  core::ExperimentConfig config;
  config.benchmarks = {"MG"};
  config.app_class = apps::NasClass::kS;
  config.skeleton_sizes = {0.05};
  config.repetitions = 1;
  config.jobs = jobs;
  return config;
}

TEST(ObsEndToEnd, DumpsAreBitIdenticalAcrossJobs) {
  std::string kv[2];
  std::string json[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    core::ExperimentDriver driver(small_config(jobs[i]));
    // Exercise the measurement pool first, as the CLI does, then take the
    // instrumented run; its dump must not depend on pool parallelism.
    driver.predict("MG", 0.05, scenario::paper_scenarios()[0]);
    obs::Recorder recorder;
    const double elapsed =
        driver.observe_app("MG", scenario::paper_scenarios()[0], recorder);
    kv[i] = recorder.metrics().to_kv(elapsed);
    json[i] = recorder.tracer().to_chrome_json(elapsed);
  }
  EXPECT_EQ(kv[0], kv[1]);
  EXPECT_EQ(json[0], json[1]);
  EXPECT_NE(kv[0].find("info.scenario="), std::string::npos);

  // Keep one trace on disk: CI uploads it as the sample timeline artifact.
  std::ofstream out(std::string(PSK_BUILD_DIR) + "/obs_sample_trace.json");
  ASSERT_TRUE(out.good());
  out << json[0];
}

TEST(ObsEndToEnd, ObserveSkeletonMatchesMeasuredCell) {
  core::ExperimentDriver driver(small_config(1));
  obs::Recorder recorder;
  const double observed = driver.observe_skeleton(
      "MG", 0.05, scenario::paper_scenarios()[0], recorder);
  EXPECT_GT(observed, 0.0);
  const std::string kv = recorder.metrics().to_kv(observed);
  EXPECT_NE(kv.find("info.app=MG-skeleton"), std::string::npos);
}

TEST(ObsEndToEnd, DriverRecordsPipelinePhases) {
  core::ExperimentDriver driver(small_config(1));
  driver.predict("MG", 0.05, scenario::paper_scenarios()[0]);
  const auto snapshot = driver.phases().snapshot();
  EXPECT_GT(snapshot.count("record"), 0u);
  EXPECT_GT(snapshot.count("fold"), 0u);
  EXPECT_GT(snapshot.count("cluster"), 0u);
  EXPECT_GT(snapshot.count("compress"), 0u);
  EXPECT_GT(snapshot.count("measure"), 0u);
}

}  // namespace
}  // namespace psk
