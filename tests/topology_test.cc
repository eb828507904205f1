// Tests for sim::Topology (spec parsing, path construction), the per-link
// fault and capacity API on multi-hop paths, the incremental flow core
// against the dense core as a reference model, bit-exact tripwires and
// completion order for both flow cores, and the large-world MPI collective
// algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mpi/world.h"
#include "scenario/synthetic.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/error.h"

namespace psk {
namespace {

using sim::LinkId;
using sim::LinkPath;
using sim::Network;
using sim::NetworkConfig;
using sim::Topology;
using sim::TopologyKind;
using sim::TopologySpec;

// ---------------------------------------------------------------- spec text

TEST(TopologySpec, ParsesAllFamilies) {
  EXPECT_EQ(TopologySpec::parse("crossbar").kind, TopologyKind::kCrossbar);
  const TopologySpec ft = TopologySpec::parse("fattree:8,4");
  EXPECT_EQ(ft.kind, TopologyKind::kFatTree);
  EXPECT_EQ(ft.fattree_down, 8);
  EXPECT_EQ(ft.fattree_up, 4);
  const TopologySpec df = TopologySpec::parse("dragonfly:6,3");
  EXPECT_EQ(df.kind, TopologyKind::kDragonfly);
  EXPECT_EQ(df.dragonfly_groups, 6);
  EXPECT_EQ(df.dragonfly_routers, 3);
}

TEST(TopologySpec, ToStringRoundTrips) {
  for (const char* text : {"crossbar", "fattree:8,4", "dragonfly:6,3"}) {
    EXPECT_EQ(TopologySpec::parse(text).to_string(), text);
    EXPECT_TRUE(TopologySpec::parse(text) == TopologySpec::parse(text));
  }
}

TEST(TopologySpec, RejectsMalformedSpecsWithValidForms) {
  for (const char* text :
       {"mesh", "fattree", "fattree:8", "fattree:0,4", "fattree:8,-1",
        "fattree:a,b", "dragonfly", "dragonfly:4", "crossbar:2",
        "fattree:8,4,2", ""}) {
    try {
      TopologySpec::parse(text);
      FAIL() << "accepted bad spec: " << text;
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("valid:"), std::string::npos)
          << text;
    }
  }
}

// --------------------------------------------------------------- path shape

TEST(Topology, CrossbarPathIsAccessPair) {
  const Topology topo(TopologySpec{}, 4);
  EXPECT_EQ(topo.link_count(), 8);
  const LinkPath p = topo.path(1, 3);
  ASSERT_EQ(p.count, 2);
  EXPECT_EQ(p.links[0], topo.uplink(1));
  EXPECT_EQ(p.links[1], topo.downlink(3));
}

TEST(Topology, FatTreeSameSwitchSkipsCore) {
  const Topology topo(TopologySpec::parse("fattree:4,2"), 8);
  const LinkPath p = topo.path(0, 3);  // both under edge switch 0
  ASSERT_EQ(p.count, 2);
  EXPECT_EQ(p.links[0], topo.uplink(0));
  EXPECT_EQ(p.links[1], topo.downlink(3));
}

TEST(Topology, FatTreeCrossSwitchUsesSharedCoreLinks) {
  const Topology topo(TopologySpec::parse("fattree:4,2"), 8);
  const LinkPath p = topo.path(0, 6);
  ASSERT_EQ(p.count, 4);
  EXPECT_EQ(p.links[0], topo.uplink(0));
  EXPECT_EQ(p.links[3], topo.downlink(6));
  // The two middle hops are switch links, outside the access range.
  EXPECT_GE(p.links[1], 2 * topo.node_count());
  EXPECT_GE(p.links[2], 2 * topo.node_count());
  // D-mod-k: destinations picking the same core port share the edge uplink.
  EXPECT_EQ(topo.path(1, 6).links[1], p.links[1]);
  // A destination with a different d mod k uses a different core port.
  EXPECT_NE(topo.path(0, 7).links[1], p.links[1]);
}

TEST(Topology, DragonflyPathLengths) {
  // 2 groups x 3 routers, 1 node per router.
  const Topology topo(TopologySpec::parse("dragonfly:2,3"), 6);
  EXPECT_EQ(topo.path(0, 0).count, 2);  // same router
  EXPECT_EQ(topo.path(0, 1).count, 3);  // same group, one local hop
  // Cross-group paths are at most access + local + global + local + access.
  for (int dst = 3; dst < 6; ++dst) {
    const LinkPath p = topo.path(0, dst);
    EXPECT_GE(p.count, 3);
    EXPECT_LE(p.count, LinkPath::kMaxLinks);
    EXPECT_EQ(p.links[0], topo.uplink(0));
    EXPECT_EQ(p.links[p.count - 1], topo.downlink(dst));
  }
  // All six nodes reach all others within the hop bound.
  for (int src = 0; src < 6; ++src) {
    for (int dst = 0; dst < 6; ++dst) {
      EXPECT_LE(topo.path(src, dst).count, LinkPath::kMaxLinks);
    }
  }
}

TEST(Topology, LinkNamesAreDistinctiveDiagnostics) {
  const Topology ft(TopologySpec::parse("fattree:2,1"), 4);
  EXPECT_EQ(ft.link_name(ft.uplink(2)), "node2.up");
  EXPECT_EQ(ft.link_name(ft.path(0, 2).links[1]), "edge0.up0");
  // Node 0 sits on router 0; the gateway to group 1 is router 1, so the
  // route hops g0.r0 -> g0.r1, crosses the global link, then descends.
  const Topology df(TopologySpec::parse("dragonfly:2,2"), 4);
  const LinkPath cross = df.path(0, 2);
  EXPECT_EQ(df.link_name(cross.links[1]), "g0.r0->r1");
  EXPECT_EQ(df.link_name(cross.links[2]), "g0->g1");
}

// ------------------------------------------------- multi-hop faults & caps

// fattree:2,1 over 4 nodes: nodes {0,1} under edge switch 0, {2,3} under
// switch 1, a single core port -- every cross-switch flow shares the same
// two switch links.  Links run at 100 B/s with zero latency so times are
// round numbers.
NetworkConfig small_fattree(NetworkConfig::Sharing sharing) {
  return NetworkConfig{.node_count = 4,
                       .bandwidth_bps = 100.0,
                       .latency = 0.0,
                       .local_bandwidth_bps = 1.0e9,
                       .local_latency = 0.0,
                       .topology = TopologySpec::parse("fattree:2,1"),
                       .sharing = sharing};
}

class SharingCores
    : public ::testing::TestWithParam<NetworkConfig::Sharing> {};

INSTANTIATE_TEST_SUITE_P(BothCores, SharingCores,
                         ::testing::Values(NetworkConfig::Sharing::kDense,
                                           NetworkConfig::Sharing::kIncremental));

TEST_P(SharingCores, NestedFaultOnCoreLinkPausesExactly) {
  sim::Engine engine;
  Network net(engine, small_fattree(GetParam()));
  const LinkId core_up = net.topology().path(0, 2).links[1];

  double done_at = -1.0;
  net.transfer(0, 2, 100, [&] { done_at = engine.now(); });  // alone: t=1
  engine.at(0.25, [&] { net.push_fault_on(core_up); });
  engine.at(0.50, [&] { net.push_fault_on(core_up); });  // depth 2
  engine.at(0.75, [&] {
    net.pop_fault_on(core_up);  // still faulted (depth 1)
    EXPECT_FALSE(net.link_healthy(core_up));
    EXPECT_EQ(net.active_flows(), 1u);  // paused, not dropped
  });
  engine.at(1.25, [&] { net.pop_fault_on(core_up); });
  engine.run();
  // 0.25 s of progress, a 1.0 s outage, then the remaining 0.75 s.
  EXPECT_NEAR(done_at, 2.0, 1e-9);
  EXPECT_TRUE(net.link_healthy(core_up));
}

TEST_P(SharingCores, FaultOffPathDoesNotStall) {
  sim::Engine engine;
  Network net(engine, small_fattree(GetParam()));
  double done_at = -1.0;
  net.transfer(0, 1, 100, [&] { done_at = engine.now(); });  // same switch
  const LinkId core_up = net.topology().path(0, 2).links[1];
  net.push_fault_on(core_up);
  engine.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST_P(SharingCores, SharedCoreLinkIsTheBottleneck) {
  sim::Engine engine;
  Network net(engine, small_fattree(GetParam()));
  double a = -1.0, b = -1.0;
  // Distinct access links, shared core link: each flow gets 50 B/s.
  net.transfer(0, 2, 100, [&] { a = engine.now(); });
  net.transfer(1, 3, 100, [&] { b = engine.now(); });
  engine.run();
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST_P(SharingCores, SetLinkCapacityOnCoreLinkRerates) {
  sim::Engine engine;
  Network net(engine, small_fattree(GetParam()));
  // Both switch links (edge0.up0 and edge1.down0) carry both flows; widen
  // both so the access links become the bottleneck again.
  const LinkId core_up = net.topology().path(0, 2).links[1];
  const LinkId core_down = net.topology().path(0, 2).links[2];
  double a = -1.0, b = -1.0;
  net.transfer(0, 2, 100, [&] { a = engine.now(); });
  net.transfer(1, 3, 100, [&] { b = engine.now(); });
  net.set_link_capacity(core_up, 400.0);
  net.set_link_capacity(core_down, 400.0);
  EXPECT_EQ(net.link_capacity(core_up), 400.0);
  engine.run();
  // Core now gives each flow 200 B/s; the 100 B/s access links bind.
  EXPECT_NEAR(a, 1.0, 1e-9);
  EXPECT_NEAR(b, 1.0, 1e-9);
}

// --------------------------------------- incremental vs dense (reference)

// Runs a contention-heavy script -- staggered transfers, a long transfer in
// flight across a capacity change and a nested link fault -- and returns
// every transfer's completion time.  The dense core is the seed's
// arithmetic, so agreement here is the incremental core's correctness test.
std::vector<double> run_script(const TopologySpec& topology,
                               NetworkConfig::Sharing sharing) {
  sim::Engine engine;
  NetworkConfig config{.node_count = 8,
                       .bandwidth_bps = 100.0,
                       .latency = 0.01,
                       .local_bandwidth_bps = 1.0e9,
                       .local_latency = 0.0,
                       .topology = topology,
                       .sharing = sharing};
  Network net(engine, config);
  std::vector<double> done(9, -1.0);
  auto mark = [&](int i) { return [&done, &engine, i] { done[static_cast<std::size_t>(i)] = engine.now(); }; };
  net.transfer(0, 4, 300, mark(0));
  net.transfer(1, 4, 200, mark(1));
  net.transfer(2, 5, 250, mark(2));
  net.transfer(0, 7, 120, mark(3));
  engine.at(0.5, [&] {
    // At most 100 B/s: still carrying bytes at t=3.0.
    net.transfer(3, 6, 400, mark(8));
    net.transfer(6, 1, 180, mark(4));
  });
  engine.at(1.2, [&] {
    net.set_link_capacity(net.topology().path(0, 4).links[1], 55.0);
    net.transfer(5, 2, 90, mark(5));
  });
  const LinkId faulty = net.topology().path(2, 5).links[1];
  engine.at(1.5, [&] { net.push_fault_on(faulty); });
  engine.at(1.7, [&] { net.push_fault_on(faulty); });
  engine.at(2.0, [&] { net.pop_fault_on(faulty); });
  engine.at(2.6, [&] {
    net.pop_fault_on(faulty);
    net.transfer(7, 0, 140, mark(6));
  });
  engine.at(3.0, [&] { net.transfer(4, 3, 160, mark(7)); });
  engine.run();
  return done;
}

TEST(IncrementalCore, MatchesDenseReferenceOnFatTree) {
  const TopologySpec topo = TopologySpec::parse("fattree:4,2");
  const std::vector<double> dense =
      run_script(topo, NetworkConfig::Sharing::kDense);
  const std::vector<double> inc =
      run_script(topo, NetworkConfig::Sharing::kIncremental);
  ASSERT_EQ(dense.size(), inc.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_GT(dense[i], 0.0) << "transfer " << i << " never finished";
    EXPECT_NEAR(inc[i], dense[i], 1e-9 * std::max(1.0, dense[i]))
        << "transfer " << i;
  }
}

TEST(IncrementalCore, MatchesDenseReferenceOnDragonfly) {
  const TopologySpec topo = TopologySpec::parse("dragonfly:2,2");
  const std::vector<double> dense =
      run_script(topo, NetworkConfig::Sharing::kDense);
  const std::vector<double> inc =
      run_script(topo, NetworkConfig::Sharing::kIncremental);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_GT(dense[i], 0.0) << "transfer " << i << " never finished";
    EXPECT_NEAR(inc[i], dense[i], 1e-9 * std::max(1.0, dense[i]))
        << "transfer " << i;
  }
}

TEST(IncrementalCore, MatchesDenseReferenceOnCrossbar) {
  const TopologySpec topo;  // crossbar
  const std::vector<double> dense =
      run_script(topo, NetworkConfig::Sharing::kAuto);  // auto = dense here
  const std::vector<double> inc =
      run_script(topo, NetworkConfig::Sharing::kIncremental);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_GT(dense[i], 0.0) << "transfer " << i << " never finished";
    EXPECT_NEAR(inc[i], dense[i], 1e-9 * std::max(1.0, dense[i]))
        << "transfer " << i;
  }
}

// ------------------------------------------------- bit-exact tripwire
// The goldens print one decimal and the tests above compare to 1e-9, so a
// one-ulp drift in either flow core would pass them.  These constants are
// the cores' exact outputs; both cores keep every per-flow floating-point
// expression in a fixed order, so any change to them must be deliberate.

struct ScriptCase {
  const char* topology;
  NetworkConfig::Sharing sharing;
  std::vector<double> done;
};

TEST(FlowCoreTripwire, RunScriptCompletionTimesAreBitExact) {
  using S = NetworkConfig::Sharing;
  const std::vector<ScriptCase> cases = {
      {"crossbar", S::kDense,
       {0x1.04129e4129e41p+3, 0x1.93c8253c8253dp+2, 0x1.ce147ae147ae2p+1,
        0x1.347ae147ae148p+1, 0x1.27ae147ae147bp+1, 0x1.0e147ae147ae1p+1,
        0x1.00a3d70a3d70ap+2, 0x1.270a3d70a3d7p+2, 0x1.20a3d70a3d70ap+2}},
      {"crossbar", S::kIncremental,
       {0x1.04129e4129e41p+3, 0x1.93c8253c8253dp+2, 0x1.ce147ae147ae2p+1,
        0x1.347ae147ae147p+1, 0x1.27ae147ae147bp+1, 0x1.0e147ae147ae1p+1,
        0x1.00a3d70a3d70ap+2, 0x1.270a3d70a3d7p+2, 0x1.20a3d70a3d70ap+2}},
      {"fattree:4,2", S::kDense,
       {0x1.a4129e4129e43p+3, 0x1.2fb586fb586fep+3, 0x1.33d70a3d70a3dp+2,
        0x1.c147ae147ae15p+1, 0x1.27ae147ae147bp+1, 0x1.0e147ae147ae1p+1,
        0x1.00a3d70a3d70ap+2, 0x1.270a3d70a3d7p+2, 0x1.ecccccccccccep+3}},
      {"fattree:4,2", S::kIncremental,
       {0x1.a4129e4129e41p+3, 0x1.2fb586fb586fbp+3, 0x1.33d70a3d70a3ep+2,
        0x1.c147ae147ae15p+1, 0x1.27ae147ae147bp+1, 0x1.0e147ae147ae1p+1,
        0x1.00a3d70a3d70ap+2, 0x1.270a3d70a3d7p+2, 0x1.eccccccccccccp+3}},
      {"dragonfly:2,2", S::kDense,
       {0x1.a0d2c2005f534p+3, 0x1.538c9138c9139p+3, 0x1.7b5f238f8bd29p+3,
        0x1.da4c55a4c55a6p+2, 0x1.f0369d0369d04p+1, 0x1.a369d0369d037p+1,
        0x1.781b4e81b4e82p+2, 0x1.8d70a3d70a3d7p+2, 0x1.c218f2c7f592ep+3}},
      {"dragonfly:2,2", S::kIncremental,
       {0x1.a0d2c2005f534p+3, 0x1.538c9138c9139p+3, 0x1.7b5f238f8bd29p+3,
        0x1.da4c55a4c55a6p+2, 0x1.f0369d0369d03p+1, 0x1.a369d0369d036p+1,
        0x1.781b4e81b4e82p+2, 0x1.8d70a3d70a3d7p+2, 0x1.c218f2c7f592ep+3}},
  };
  for (const ScriptCase& c : cases) {
    const std::vector<double> done =
        run_script(TopologySpec::parse(c.topology), c.sharing);
    ASSERT_EQ(done.size(), c.done.size());
    for (std::size_t i = 0; i < done.size(); ++i) {
      EXPECT_EQ(done[i], c.done[i])
          << c.topology << (c.sharing == S::kDense ? " dense" : " incremental")
          << " transfer " << i;
    }
  }
}

TEST(FlowCoreTripwire, SyntheticBspAt256RanksIsBitExact) {
  struct BspCase {
    const char* topology;
    std::uint64_t events;
    double simulated_seconds;
  };
  const BspCase cases[] = {
      {"crossbar", 54106, 0x1.a240314877699p-6},
      {"fattree:32,16", 54106, 0x1.a2c669057d18fp-6},
      {"dragonfly:16,8", 54106, 0x1.ad42c3c9eeccdp-6},
  };
  for (const BspCase& c : cases) {
    sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed(256);
    cluster.cores_per_node = 1;
    cluster.topology = TopologySpec::parse(c.topology);
    const scenario::SyntheticResult result =
        scenario::run_synthetic_bsp(cluster, 256, scenario::SyntheticSpec{});
    EXPECT_EQ(result.events_dispatched, c.events) << c.topology;
    EXPECT_EQ(result.simulated_seconds, c.simulated_seconds) << c.topology;
  }
}

// ------------------------------------------------ completion order and ETAs

// Completion order of `count` equal transfers on disjoint crossbar paths
// (i -> i + count), started together after a first wave of unequal
// transfers on the same paths has finished and freed its flow slots.
std::vector<int> equal_eta_order(NetworkConfig::Sharing sharing, int count) {
  sim::Engine engine;
  NetworkConfig config{.node_count = 2 * count,
                       .bandwidth_bps = 100.0,
                       .latency = 0.0,
                       .local_bandwidth_bps = 1.0e9,
                       .local_latency = 0.0,
                       .topology = TopologySpec{},
                       .sharing = sharing};
  Network net(engine, config);
  for (int i = 0; i < count; ++i) {
    net.transfer(i, i + count, 10 * static_cast<std::uint64_t>(i + 1), [] {});
  }
  std::vector<int> order;
  engine.at(100.0, [&] {
    for (int i = 0; i < count; ++i) {
      net.transfer(i, i + count, 50, [&order, i] { order.push_back(i); });
    }
  });
  engine.run();
  return order;
}

TEST(FlowCoreOrder, EqualEtasCompleteInFlowIdOrderOnIncrementalCore) {
  // The first wave finishes in path order, so its slots are freed 0..7 and
  // reused last-freed first: the second wave's k-th transfer gets flow id
  // 7 - k.  Equal ETAs then complete in flow-id order, (eta, id) as an
  // ordered set pops them -- the reverse of the order they started in.
  EXPECT_EQ(equal_eta_order(NetworkConfig::Sharing::kIncremental, 8),
            (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(FlowCoreOrder, EqualEtasCompleteInAdmissionOrderOnDenseCore) {
  EXPECT_EQ(equal_eta_order(NetworkConfig::Sharing::kDense, 8),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_P(SharingCores, FaultPausedFlowResumesAtExactTime) {
  // Transfer A (0 -> 1) pauses when uplink(0) faults at 0.3 s; while it is
  // paused the transfers sharing downlink(1) re-rate, a new transfer starts
  // and downlink(1) is reshaped.  A resumes at 1.9 s.
  sim::Engine engine;
  NetworkConfig config{.node_count = 4,
                       .bandwidth_bps = 70.0,
                       .latency = 0.003,
                       .local_bandwidth_bps = 1.0e9,
                       .local_latency = 0.0,
                       .topology = TopologySpec{},
                       .sharing = GetParam()};
  Network net(engine, config);
  double a = -1.0;
  net.transfer(0, 1, 130, [&] { a = engine.now(); });
  net.transfer(2, 1, 210, [] {});
  net.transfer(3, 1, 45, [] {});
  const LinkId up0 = net.topology().uplink(0);
  engine.at(0.3, [&] { net.push_fault_on(up0); });
  engine.at(0.7, [&] { net.transfer(2, 3, 95, [] {}); });
  engine.at(1.1, [&] {
    net.set_link_capacity(net.topology().downlink(1), 90.0);
  });
  engine.at(1.9, [&] {
    net.pop_fault_on(up0);
    net.transfer(3, 2, 60, [] {});
  });
  engine.run();
  EXPECT_EQ(a, 0x1.28a2050197c79p+2);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_P(SharingCores, ReusedFlowSlotsMatchTheDenseReference) {
  // Waves of transfers started from completion callbacks, so every wave
  // reuses the slots the previous one freed, with a fault on a shared link
  // pausing part of each wave.  A stale completion-queue position would
  // complete the wrong transfer or none (and trips ASan on a freed slot).
  const auto run = [](NetworkConfig::Sharing sharing) {
    sim::Engine engine;
    NetworkConfig config{.node_count = 6,
                         .bandwidth_bps = 100.0,
                         .latency = 0.001,
                         .local_bandwidth_bps = 1.0e9,
                         .local_latency = 0.0,
                         .topology = TopologySpec{},
                         .sharing = sharing};
    Network net(engine, config);
    std::vector<double> done;
    std::function<void(int)> start = [&](int wave) {
      for (int i = 0; i < 5; ++i) {
        const int src = (wave + i) % 6;
        const int dst = (wave + 2 * i + 1) % 6;
        if (src == dst) continue;
        const std::uint64_t bytes = 20 + 7 * static_cast<std::uint64_t>(
                                             (wave * 5 + i) % 11);
        const bool last = i == 4;
        net.transfer(src, dst, bytes, [&, wave, last] {
          done.push_back(engine.now());
          if (last && wave < 12) start(wave + 1);
        });
      }
    };
    start(0);
    const LinkId down3 = net.topology().downlink(3);
    for (int k = 0; k < 6; ++k) {
      engine.at(0.4 + 1.1 * k, [&net, down3] { net.push_fault_on(down3); });
      engine.at(0.9 + 1.1 * k, [&net, down3] { net.pop_fault_on(down3); });
    }
    engine.run();
    EXPECT_EQ(net.active_flows(), 0u);
    return done;
  };
  const std::vector<double> reference = run(NetworkConfig::Sharing::kDense);
  const std::vector<double> done = run(GetParam());
  ASSERT_EQ(done.size(), reference.size());
  EXPECT_GT(done.size(), 50u);
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_NEAR(done[i], reference[i], 1e-9 * std::max(1.0, reference[i]))
        << "completion " << i;
  }
}

// ---------------------------------------------------------- config surface

TEST(NetworkConfigApi, NodeConveniencesMapToAccessLinks) {
  sim::Engine engine;
  Network net(engine, small_fattree(NetworkConfig::Sharing::kAuto));
  net.set_link_bandwidth(2, 40.0);  // both directions, one pass
  EXPECT_EQ(net.link_capacity(net.topology().uplink(2)), 40.0);
  EXPECT_EQ(net.link_capacity(net.topology().downlink(2)), 40.0);
  net.push_link_fault(2);
  EXPECT_FALSE(net.link_up(2));
  EXPECT_FALSE(net.link_healthy(net.topology().uplink(2)));
  EXPECT_FALSE(net.link_healthy(net.topology().downlink(2)));
  net.pop_link_fault(2);
  EXPECT_TRUE(net.link_up(2));
}

TEST(NetworkConfigApi, ClusterConfigTopologyReachesTheMachine) {
  sim::ClusterConfig cluster;
  cluster.nodes = 8;
  cluster.topology = TopologySpec::parse("fattree:4,2");
  sim::Machine machine(cluster);
  EXPECT_EQ(machine.network().topology().spec().to_string(), "fattree:4,2");
  EXPECT_GT(machine.network().link_count(), 16);  // access + switch links
}

// ------------------------------------------------- large-world collectives

mpi::MpiConfig fast_mpi(int large_world_threshold) {
  mpi::MpiConfig config;
  config.per_call_overhead = 0.0;
  config.trace_overhead = 0.0;
  config.large_world_threshold = large_world_threshold;
  return config;
}

sim::ClusterConfig wide_cluster(int nodes) {
  sim::ClusterConfig config;
  config.nodes = nodes;
  config.cores_per_node = 1;
  config.link_bandwidth_bps = 1.0e6;
  config.latency = 1.0e-4;
  config.local_latency = 0.0;
  return config;
}

// p = 48: non-power-of-two and above the default threshold of 32, so the
// Bruck / recursive-doubling paths engage.  Each collective must complete
// under both algorithm families; the log-depth one must dispatch fewer
// simulator events (it exists to cut O(p) rounds to O(log p)).
template <typename Body>
std::uint64_t collective_events(int threshold, Body body) {
  sim::Machine machine(wide_cluster(48));
  mpi::World world(machine, 48, fast_mpi(threshold));
  world.launch([body](mpi::Comm& comm) -> sim::Task {
    co_await body(comm);
  });
  EXPECT_NO_THROW(world.run());
  return machine.engine().events_dispatched();
}

TEST(LargeWorldCollectives, BruckAllgatherCompletesWithFewerEvents) {
  const auto body = [](mpi::Comm& comm) { return comm.allgather(256); };
  const std::uint64_t ring = collective_events(0, body);
  const std::uint64_t bruck = collective_events(32, body);
  EXPECT_LT(bruck, ring);
}

TEST(LargeWorldCollectives, BruckAlltoallCompletesWithFewerEvents) {
  const auto body = [](mpi::Comm& comm) { return comm.alltoall(64); };
  const std::uint64_t pairwise = collective_events(0, body);
  const std::uint64_t bruck = collective_events(32, body);
  EXPECT_LT(bruck, pairwise);
}

TEST(LargeWorldCollectives, RecursiveDoublingScanCompletes) {
  const auto body = [](mpi::Comm& comm) { return comm.scan(128); };
  const std::uint64_t linear = collective_events(0, body);
  const std::uint64_t doubling = collective_events(32, body);
  EXPECT_GT(linear, 0u);
  EXPECT_GT(doubling, 0u);
}

TEST(LargeWorldCollectives, ThresholdZeroDisablesLargeWorldPaths) {
  // Smoke: threshold 0 must keep the legacy algorithms working at width 48
  // (completion is the observable; algorithm choice is covered above).
  sim::Machine machine(wide_cluster(48));
  mpi::World world(machine, 48, fast_mpi(0));
  world.launch([](mpi::Comm& comm) -> sim::Task {
    co_await comm.allgather(64);
    co_await comm.alltoall(32);
    co_await comm.scan(16);
  });
  EXPECT_NO_THROW(world.run());
}

}  // namespace
}  // namespace psk
