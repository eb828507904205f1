// Tests for the resource-sharing scenarios.
#include <gtest/gtest.h>

#include "mpi/world.h"
#include "scenario/scenario.h"
#include "sim/machine.h"
#include "util/error.h"

namespace psk::scenario {
namespace {

sim::ClusterConfig quiet_cluster() {
  sim::ClusterConfig config = sim::ClusterConfig::paper_testbed();
  config.cpu_jitter = 0;
  config.net_jitter = 0;
  return config;
}

/// Capacity of `node`'s access uplink, the link the scenarios shape.
double uplink_capacity(sim::Machine& machine, int node) {
  sim::Network& net = machine.network();
  return net.link_capacity(net.topology().uplink(node));
}

TEST(Scenarios, PaperSetHasFive) {
  ASSERT_EQ(paper_scenarios().size(), 5u);
  EXPECT_EQ(std::string(paper_scenarios()[0].name), "cpu-one-node");
  EXPECT_EQ(std::string(paper_scenarios()[4].name), "cpu-and-net");
}

TEST(Scenarios, FindByName) {
  EXPECT_EQ(find_scenario("dedicated").kind, Kind::kDedicated);
  EXPECT_EQ(find_scenario("net-all-links").kind, Kind::kNetAllLinks);
  EXPECT_THROW(find_scenario("nope"), psk::ConfigError);
}

TEST(Scenarios, UnknownNameErrorListsValidNames) {
  try {
    find_scenario("crash-one-nod");  // near miss
    FAIL() << "expected ConfigError";
  } catch (const psk::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("crash-one-nod"), std::string::npos) << what;
    // The message enumerates every registry: dedicated, paper sharing,
    // memory extension, and fault scenarios.
    EXPECT_NE(what.find("dedicated"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu-one-node"), std::string::npos) << what;
    EXPECT_NE(what.find("mem-one-node"), std::string::npos) << what;
    EXPECT_NE(what.find("crash-one-node"), std::string::npos) << what;
    EXPECT_NE(what.find("flap-one-link"), std::string::npos) << what;
  }
}

TEST(Scenarios, FaultRegistryAppliesInjection) {
  // A fault scenario's apply() must arm the schedule: the crash window
  // pushes the run time of a fixed compute task past its fault-free value.
  sim::ClusterConfig config = quiet_cluster();
  sim::Machine machine(config);
  find_scenario("crash-one-node").apply(machine);
  double done_at = -1;
  machine.engine().spawn([](sim::Machine& m, double& done) -> sim::Task {
    co_await m.compute_await(0, 30.0);
    done = m.engine().now();
  }(machine, done_at));
  machine.engine().run();
  // First crash at t=20 for 10 s: 30 s of work cannot finish before t=40.
  EXPECT_GE(done_at, 40.0);
}

TEST(Scenarios, DedicatedLeavesMachineUntouched) {
  sim::Machine machine(quiet_cluster());
  dedicated().apply(machine);
  EXPECT_EQ(machine.node(0).load_processes(), 0);
  EXPECT_DOUBLE_EQ(uplink_capacity(machine, 0),
                   quiet_cluster().link_bandwidth_bps);
}

TEST(Scenarios, CpuOneNodeLoadsOnlyAffectedNode) {
  sim::Machine machine(quiet_cluster());
  find_scenario("cpu-one-node").apply(machine);
  EXPECT_EQ(machine.node(0).load_processes(), 2);
  EXPECT_EQ(machine.node(1).load_processes(), 0);
}

TEST(Scenarios, CpuAllNodesLoadsEveryNode) {
  sim::Machine machine(quiet_cluster());
  find_scenario("cpu-all-nodes").apply(machine);
  for (int n = 0; n < machine.node_count(); ++n) {
    EXPECT_EQ(machine.node(n).load_processes(), 2) << "node " << n;
  }
}

TEST(Scenarios, NetOneLinkShapesOnlyAffectedLink) {
  sim::Machine machine(quiet_cluster());
  find_scenario("net-one-link").apply(machine);
  // Around 10 Mbps with flutter: within the +-30% flutter amplitude.
  EXPECT_NEAR(uplink_capacity(machine, 0), 1.25e6, 1.25e6 * 0.31);
  EXPECT_DOUBLE_EQ(uplink_capacity(machine, 1),
                   quiet_cluster().link_bandwidth_bps);
}

TEST(Scenarios, CombinedScenarioDoesBoth) {
  sim::Machine machine(quiet_cluster());
  find_scenario("cpu-and-net").apply(machine);
  EXPECT_EQ(machine.node(0).load_processes(), 2);
  EXPECT_NEAR(uplink_capacity(machine, 0), 1.25e6, 1.25e6 * 0.31);
  EXPECT_EQ(machine.node(1).load_processes(), 0);
}

TEST(Scenarios, FlutterResamplesOverTime) {
  sim::Machine machine(quiet_cluster());
  find_scenario("net-one-link").apply(machine);
  const double before = uplink_capacity(machine, 0);
  // A long-running task keeps the simulation alive through several flutter
  // periods.
  machine.engine().spawn([](sim::Engine& engine) -> sim::Task {
    co_await engine.sleep(30.0);
  }(machine.engine()));
  machine.engine().run();
  const double after = uplink_capacity(machine, 0);
  EXPECT_NE(before, after);
  EXPECT_NEAR(after, 1.25e6, 1.25e6 * 0.31);
}

TEST(Scenarios, FlutterIsSeeded) {
  const auto bandwidth_after = [](std::uint64_t seed) {
    sim::ClusterConfig config = quiet_cluster();
    config.seed = seed;
    sim::Machine machine(config);
    find_scenario("net-all-links").apply(machine);
    machine.engine().spawn([](sim::Engine& engine) -> sim::Task {
      co_await engine.sleep(20.0);
    }(machine.engine()));
    machine.engine().run();
    return uplink_capacity(machine, 2);
  };
  EXPECT_DOUBLE_EQ(bandwidth_after(5), bandwidth_after(5));
  EXPECT_NE(bandwidth_after(5), bandwidth_after(6));
}

TEST(Scenarios, UnfairnessAppliesOnlyUnderContention) {
  sim::Machine machine(quiet_cluster());
  machine.node(0).set_contention_unfairness(0.8);
  // Uncontended: full speed despite the unfairness factor.
  double done_at = -1;
  machine.node(0).submit(2.0, [&] { done_at = machine.engine().now(); });
  machine.engine().run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(Scenarios, UnfairnessScalesContendedRate) {
  sim::Machine machine(quiet_cluster());
  machine.node(0).add_load(2);
  machine.node(0).set_contention_unfairness(0.8);
  double done_at = -1;
  // Share 2/3 * 0.8: 2.0 work takes 2 / (2/3 * 0.8) = 3.75 s.
  machine.node(0).submit(2.0, [&] { done_at = machine.engine().now(); });
  machine.engine().run();
  EXPECT_NEAR(done_at, 3.75, 1e-9);
}

TEST(Scenarios, TimeLimitCatchesRunaway) {
  sim::Machine machine(quiet_cluster());
  machine.engine().set_time_limit(10.0);
  find_scenario("net-one-link").apply(machine);  // flutter keeps queue alive
  // A task that never finishes: the time limit must fire, not a hang.
  machine.engine().spawn([](sim::Engine& engine) -> sim::Task {
    for (;;) co_await engine.sleep(1.0);
  }(machine.engine()));
  EXPECT_THROW(machine.engine().run(), psk::DeadlockError);
}

}  // namespace
}  // namespace psk::scenario
