// Edge-case and failure-injection tests across the substrate layers.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mpi/world.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "util/error.h"

namespace psk {
namespace {

// ------------------------------------------------------------- CPU edges

TEST(CpuEdge, BandwidthOfWorkConservedUnderChurn) {
  // Total work completed equals total work submitted regardless of how
  // often the membership (and thus the rate) changes.
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  double total_submitted = 0;
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    const double work = 0.1 + 0.01 * (i % 7);
    total_submitted += work;
    engine.at(0.05 * i, [&node, work, &completed] {
      node.submit(work, [&completed] { ++completed; });
    });
  }
  // Load toggles mid-run.
  engine.at(0.7, [&node] { node.add_load(2); });
  engine.at(1.9, [&node] { node.remove_load(1); });
  engine.run();
  EXPECT_EQ(completed, 50);
}

TEST(CpuEdge, RemoveMoreLoadThanPresentIsClamped) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  node.add_load(1);
  node.remove_load(5);
  EXPECT_EQ(node.load_processes(), 0);
}

TEST(CpuEdge, TiedCompletionsFireTogether) {
  sim::Engine engine;
  sim::CpuNode node(engine, 2, 1.0);
  std::vector<double> times;
  node.submit(1.0, [&] { times.push_back(engine.now()); });
  node.submit(1.0, [&] { times.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], times[1]);
}

TEST(CpuEdge, LongRunStaysNumericallyStable) {
  // Thousands of sequential jobs at large simulated times: the min-set
  // completion rule must avoid the ULP spin the naive epsilon test hits.
  sim::Engine engine;
  sim::CpuNode node(engine, 1, 1.0);
  node.add_load(1);
  int remaining = 3000;
  std::function<void()> chain = [&] {
    if (--remaining > 0) node.submit(0.339 + 1e-7, chain);
  };
  node.submit(0.339, chain);
  engine.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_GT(engine.now(), 1000.0);
}

TEST(CpuEdge, SpeedChangeMidJobRerates) {
  sim::Engine engine;
  sim::CpuNode node(engine, 1, 1.0);
  double done_at = -1;
  node.submit(2.0, [&] { done_at = engine.now(); });
  // After 1 s (1.0 work done) the node doubles its speed (DVFS / future
  // architecture studies): the remaining 1.0 work takes 0.5 s.
  engine.at(1.0, [&node] { node.set_speed(2.0); });
  engine.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST(CpuEdge, SpeedSetterRejectsNonPositive) {
  sim::Engine engine;
  sim::CpuNode node(engine, 1, 1.0);
  EXPECT_THROW(node.set_speed(0.0), ConfigError);
}

// --------------------------------------------------------- network edges

TEST(NetworkEdge, BandwidthChangeMidFlowRerates) {
  sim::Engine engine;
  sim::Network net(engine, sim::NetworkConfig{.node_count = 2,
                                             .bandwidth_bps = 100.0,
                                             .latency = 0.0,
                                             .local_latency = 0.0});
  double done_at = -1;
  net.transfer(0, 1, 200, [&] { done_at = engine.now(); });
  // After 1 s (100 bytes done), halve the uplink: remaining 100 bytes at
  // 50 B/s take 2 more seconds.
  engine.at(1.0, [&] {
    net.set_link_capacity(net.topology().uplink(0), 50.0);
  });
  engine.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(NetworkEdge, AsymmetricUpDownLinks) {
  sim::Engine engine;
  sim::Network net(engine, sim::NetworkConfig{.node_count = 2,
                                             .bandwidth_bps = 100.0,
                                             .latency = 0.0,
                                             .local_latency = 0.0});
  // The receiver is the bottleneck.
  net.set_link_capacity(net.topology().downlink(1), 10.0);
  double done_at = -1;
  net.transfer(0, 1, 100, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(done_at, 10.0, 1e-9);
}

TEST(NetworkEdge, ManyTinyFlowsDrainCompletely) {
  sim::Engine engine;
  sim::Network net(engine, sim::NetworkConfig{.node_count = 4,
                                             .bandwidth_bps = 1000.0,
                                             .latency = 1e-4,
                                             .local_latency = 0.0});
  int done = 0;
  for (int i = 0; i < 400; ++i) {
    net.transfer(i % 4, (i + 1 + i / 4) % 4, 1 + i % 97, [&done] { ++done; });
  }
  engine.run();
  EXPECT_EQ(done, 400);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkEdge, BackgroundFlowOnlyAffectsItsLinks) {
  sim::Engine engine;
  sim::Network net(engine, sim::NetworkConfig{.node_count = 4,
                                             .bandwidth_bps = 100.0,
                                             .latency = 0.0,
                                             .local_latency = 0.0});
  // A long 0 -> 1 transfer is still in flight for the whole 2 -> 3 one.
  double busy = -1;
  net.transfer(0, 1, 1000, [&] { busy = engine.now(); });
  double other = -1;
  net.transfer(2, 3, 100, [&] { other = engine.now(); });
  engine.run();
  EXPECT_NEAR(other, 1.0, 1e-9);  // full bandwidth, unaffected
  EXPECT_NEAR(busy, 10.0, 1e-9);
}

// ------------------------------------------------------------- MPI edges

sim::ClusterConfig tiny_cluster() {
  sim::ClusterConfig config;
  config.nodes = 2;
  config.cores_per_node = 2;
  config.link_bandwidth_bps = 100.0;
  config.latency = 0.1;
  config.local_bandwidth_bps = 1000.0;
  config.local_latency = 0.01;
  return config;
}

TEST(MpiEdge, CoLocatedRanksUseLocalChannel) {
  // Two ranks on one node: their messages must be far faster than the wire.
  sim::Machine machine(tiny_cluster());
  mpi::MpiConfig mpi_config;
  mpi_config.per_call_overhead = 0;
  mpi_config.trace_overhead = 0;
  mpi::World world(machine, std::vector<int>{0, 0}, mpi_config);
  double done_at = -1;
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 100);
    } else {
      co_await comm.recv(0, 100);
      done_at = comm.now();
    }
  });
  world.run();
  // Local: 0.01 + 100/1000 = 0.11 s rather than 0.1 + 1 = 1.1 s.
  EXPECT_NEAR(done_at, 0.11, 1e-9);
}

TEST(MpiEdge, MessageAtExactEagerThresholdIsEager) {
  sim::Machine machine(tiny_cluster());
  mpi::MpiConfig mpi_config;
  mpi_config.per_call_overhead = 0;
  mpi_config.trace_overhead = 0;
  mpi_config.eager_threshold = 100;
  mpi::World world(machine, 2, mpi_config);
  double send_done = -1;
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 100);  // == threshold: still eager
      send_done = comm.now();
    } else {
      co_await comm.compute(5.0);
      co_await comm.recv(0, 100);
    }
  });
  world.run();
  EXPECT_LT(send_done, 2.0);  // did not wait for the receiver
}

TEST(MpiEdge, MixedEagerAndRendezvousOnOneChannelStayFifo) {
  sim::Machine machine(tiny_cluster());
  mpi::MpiConfig mpi_config;
  mpi_config.per_call_overhead = 0;
  mpi_config.trace_overhead = 0;
  mpi_config.eager_threshold = 150;
  mpi::World world(machine, 2, mpi_config);
  std::vector<int> order;
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      const mpi::Request small = comm.isend(1, 100);   // eager
      const mpi::Request large = comm.isend(1, 5000);  // rendezvous
      std::vector<mpi::Request> reqs{small, large};
      co_await comm.waitall(reqs);
    } else {
      co_await comm.recv(0, 100);
      order.push_back(1);
      co_await comm.recv(0, 5000);
      order.push_back(2);
    }
  });
  EXPECT_NO_THROW(world.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MpiEdge, ZeroByteMessagesMatchNormally) {
  sim::Machine machine(tiny_cluster());
  mpi::World world(machine, 2);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 0);
      co_await comm.recv(1, 0);
    } else {
      co_await comm.recv(0, 0);
      co_await comm.send(0, 0);
    }
  });
  EXPECT_NO_THROW(world.run());
}

TEST(MpiEdge, SelfMessagingWorks) {
  sim::Machine machine(tiny_cluster());
  mpi::World world(machine, 2);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    const mpi::Request recv = comm.irecv(comm.rank(), 64);
    const mpi::Request send = comm.isend(comm.rank(), 64);
    std::vector<mpi::Request> reqs{recv, send};
    co_await comm.waitall(reqs);
  });
  EXPECT_NO_THROW(world.run());
}

TEST(MpiEdge, UnmatchedIrecvWaitIsDetectedAsDeadlock) {
  sim::Machine machine(tiny_cluster());
  mpi::World world(machine, 2);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      const mpi::Request r = comm.irecv(1, 64);  // rank 1 never sends
      co_await comm.wait(r);
    } else {
      co_await comm.compute(0.1);
    }
  });
  EXPECT_THROW(world.run(), DeadlockError);
}

TEST(MpiEdge, WaitingTwiceOnCompletedRequestIsFine) {
  sim::Machine machine(tiny_cluster());
  mpi::World world(machine, 2);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      const mpi::Request r = comm.isend(1, 64);
      co_await comm.wait(r);
      co_await comm.wait(r);  // already done: returns immediately
    } else {
      co_await comm.recv(0, 64);
    }
  });
  EXPECT_NO_THROW(world.run());
}

TEST(MpiEdge, SingleRankWorldRunsCollectives) {
  sim::ClusterConfig config = tiny_cluster();
  config.nodes = 1;
  sim::Machine machine(config);
  mpi::World world(machine, 1);
  world.launch([](mpi::Comm& comm) -> sim::Task {
    co_await comm.barrier();
    co_await comm.bcast(0, 1000);
    co_await comm.allreduce(8);
    co_await comm.alltoall(100);
    co_await comm.gather(0, 100);
    co_await comm.scan(100);
  });
  EXPECT_NO_THROW(world.run());
}

}  // namespace
}  // namespace psk
