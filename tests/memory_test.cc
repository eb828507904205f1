// Tests for the memory-activity model: bus contention in the simulator and
// memory behaviour through trace, signature, skeleton and replay.
#include <gtest/gtest.h>

#include "apps/nas.h"
#include "archive/codec.h"
#include "codegen/emit_c.h"
#include "core/framework.h"
#include "mpi/world.h"
#include "scenario/scenario.h"
#include "sig/compress.h"
#include "sim/cpu.h"
#include "sim/machine.h"
#include "skeleton/skeleton.h"
#include "trace/fold.h"
#include "trace/recorder.h"

namespace psk {
namespace {

// ----------------------------------------------------------- bus mechanics

TEST(MemoryBus, NoThrottleBelowCapacity) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  node.set_memory_bandwidth(10.0);
  double done_at = -1;
  // One job at rate 1.0 demanding 8 bytes/work-s: under the 10 B/s bus.
  node.submit(2.0, [&] { done_at = engine.now(); }, 8.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(MemoryBus, ThrottleAboveCapacity) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  node.set_memory_bandwidth(10.0);
  double done_at = -1;
  // Demand 20 B/s on a 10 B/s bus: rate halves.
  node.submit(2.0, [&] { done_at = engine.now(); }, 20.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 4.0);
}

TEST(MemoryBus, MemoryHogSlowsMemoryJobOnly) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  node.set_memory_bandwidth(10.0);
  node.add_load(1, /*mem_bytes_per_work=*/8.0);  // hog on the second core
  double mem_done = -1;
  double cpu_done = -1;
  // Memory job: demand 8 (job) + 8 (hog) = 16 > 10: throttle 10/16 = 0.625.
  node.submit(2.0, [&] { mem_done = engine.now(); }, 8.0);
  engine.run();
  EXPECT_NEAR(mem_done, 2.0 / 0.625, 1e-9);

  sim::Engine engine2;
  sim::CpuNode node2(engine2, 2, 1.0);
  node2.set_memory_bandwidth(10.0);
  node2.add_load(1, 8.0);
  // Cache-resident job: unaffected by the bus (two cores, two jobs).
  node2.submit(2.0, [&] { cpu_done = engine2.now(); }, 0.0);
  engine2.run();
  EXPECT_DOUBLE_EQ(cpu_done, 2.0);
}

TEST(MemoryBus, ThrottleLiftsWhenHogLeaves) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  node.set_memory_bandwidth(10.0);
  node.add_load(1, 12.0);
  double done_at = -1;
  // Demand 8+12=20 -> throttle 0.5 -> progresses at 0.5 until the hog
  // leaves at t=2 (1.0 work done), then full speed for the last 1.0.
  node.submit(2.0, [&] { done_at = engine.now(); }, 8.0);
  engine.at(2.0, [&node] { node.remove_load(1); });
  engine.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(MemoryBus, DefaultBandwidthIsUnlimited) {
  sim::Engine engine;
  sim::CpuNode node(engine, 1, 1.0);
  double done_at = -1;
  node.submit(1.0, [&] { done_at = engine.now(); }, 1e18);
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 1.0);
}

// -------------------------------------------------------- pipeline carry

TEST(MemoryPipeline, TraceRecordsMemoryTraffic) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      [](mpi::Comm& comm) -> sim::Task {
        co_await comm.compute(0.5, 1'000'000);
        co_await comm.allreduce(8);
      },
      "memtoy");
  const trace::TraceEvent& event = trace.ranks[0].events[0];
  EXPECT_DOUBLE_EQ(event.pre_mem_bytes, 1'000'000.0);
}

TEST(MemoryPipeline, FoldAttributesInteriorMemory) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      [](mpi::Comm& comm) -> sim::Task {
        const int peer = comm.rank() ^ 1;
        std::vector<mpi::Request> reqs;
        reqs.push_back(comm.irecv(peer, 1024));
        co_await comm.compute(0.1, 500'000);  // packing inside the region
        reqs.push_back(comm.isend(peer, 1024));
        co_await comm.waitall(std::move(reqs));
      },
      "memfold");
  const trace::TraceEvent& region = trace.ranks[0].events[0];
  ASSERT_EQ(region.type, mpi::CallType::kExchange);
  EXPECT_DOUBLE_EQ(region.interior_mem_bytes, 500'000.0);
}

TEST(MemoryPipeline, SignatureAveragesAndScalesMemory) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      [](mpi::Comm& comm) -> sim::Task {
        for (int i = 0; i < 40; ++i) {
          co_await comm.compute(0.05, 2'000'000);
          co_await comm.barrier();
        }
      },
      "memsig");
  const sig::Signature signature = framework.make_signature(trace, 4.0);
  // Find the barrier leaf and verify the memory mean survived clustering.
  double seen = 0;
  for (const sig::SigEvent& event :
       sig::expand(signature.ranks[0].roots)) {
    seen = std::max(seen, event.pre_mem_bytes);
  }
  EXPECT_NEAR(seen, 2'000'000.0, 1.0);

  const skeleton::Skeleton skeleton =
      framework.make_skeleton(signature, 8.0);
  // Residual-scaled leftovers carry proportionally reduced bytes; the loop
  // body's full iterations keep full-size phases.
  double kept = 0;
  for (const sig::SigEvent& event : sig::expand(skeleton.ranks[0].roots)) {
    kept = std::max(kept, event.pre_mem_bytes);
  }
  EXPECT_NEAR(kept, 2'000'000.0, 1.0);
}

TEST(MemoryPipeline, SignatureIoRoundTripsMemory) {
  sig::Signature signature;
  sig::RankSignature rank;
  sig::SigEvent event;
  event.type = mpi::CallType::kBarrier;
  event.pre_mem_bytes = 123456.0;
  event.interior_mem_bytes = 789.0;
  rank.roots.push_back(sig::SigNode::leaf(event));
  signature.ranks.push_back(rank);
  std::string payload;
  archive::encode(payload, signature);
  const sig::Signature parsed =
      archive::decode_signature(payload).or_throw();
  EXPECT_DOUBLE_EQ(parsed.ranks[0].roots[0].event.pre_mem_bytes, 123456.0);
  EXPECT_DOUBLE_EQ(parsed.ranks[0].roots[0].event.interior_mem_bytes, 789.0);
}

TEST(MemoryPipeline, CodegenEmitsMemoryWalkingCompute) {
  core::SkeletonFramework framework;
  const skeleton::Skeleton skeleton = framework.construct(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG", 0.05);
  const std::string source = codegen::emit_c_program(skeleton);
  EXPECT_NE(source.find("psk_compute_mem("), std::string::npos);
}

// ------------------------------------------------------ end-to-end effect

TEST(MemoryScenario, HogSlowsMemoryBoundAppNotComputeBound) {
  core::SkeletonFramework framework;
  const auto mg = apps::find_benchmark("MG").make(apps::NasClass::kS);
  const auto ep = apps::find_benchmark("EP").make(apps::NasClass::kS);
  const auto& hog = scenario::memory_hog();

  const double mg_dedicated =
      framework.run_app(mg, scenario::dedicated());
  const double mg_hog = framework.run_app(mg, hog);
  EXPECT_GT(mg_hog, mg_dedicated * 1.2);

  const double ep_dedicated =
      framework.run_app(ep, scenario::dedicated());
  const double ep_hog = framework.run_app(ep, hog);
  EXPECT_LT(ep_hog, ep_dedicated * 1.08);
}

TEST(MemoryScenario, MemoryAwareSkeletonPredictsHog) {
  core::SkeletonFramework framework;
  const auto program = apps::find_benchmark("MG").make(apps::NasClass::kS);
  const trace::Trace trace = framework.record(program, "MG");
  const skeleton::Skeleton skeleton =
      framework.make_consistent_skeleton(trace, 5.0);

  skeleton::Calibration calibration;
  calibration.app_dedicated_time = trace.elapsed();
  calibration.skeleton_dedicated_time =
      framework.run_skeleton(skeleton, scenario::dedicated());
  const double shared =
      framework.run_skeleton(skeleton, scenario::memory_hog(), 1);
  const double predicted =
      skeleton::predict_app_time(calibration, shared);
  const double actual =
      framework.run_app(program, scenario::memory_hog());
  EXPECT_LT(skeleton::prediction_error_percent(predicted, actual), 12.0);
}

TEST(MemoryScenario, PaperScenariosUnaffectedByAnnotations) {
  // The paper's CPU scenarios use cache-resident spinners; with one rank
  // per dual-core node no benchmark saturates the 6 GB/s bus on its own,
  // so the class S dedicated times still match pre-memory calibrations.
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  world.launch(apps::find_benchmark("MG").make(apps::NasClass::kS));
  const double elapsed = world.run();
  EXPECT_GT(elapsed, 0.02);
  EXPECT_LT(elapsed, 0.06);  // unchanged ~0.034 s
}

}  // namespace
}  // namespace psk
