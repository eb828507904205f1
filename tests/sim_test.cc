// Unit tests for the discrete-event simulation substrate.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "sim/task.h"
#include "util/error.h"

namespace psk::sim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(2.0, [&] { order.push_back(2); });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EventQueue, TieBreaksByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  auto handle = engine.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsSafe) {
  Engine engine;
  EventQueue::Handle handle = engine.at(0.0, [] {});
  engine.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(EventQueue, EventsScheduledDuringRun) {
  Engine engine;
  std::vector<double> times;
  engine.at(1.0, [&] {
    times.push_back(engine.now());
    engine.after(0.5, [&] { times.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventQueue, PastTimesClampToNow) {
  Engine engine;
  double fired_at = -1;
  engine.at(1.0, [&] {
    engine.at(0.25, [&] { fired_at = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.0);
}

// --------------------------------------------------------------------- Tasks

Task trivial_task(int& counter) {
  ++counter;
  co_return;
}

TEST(Task, SpawnRunsToCompletion) {
  Engine engine;
  int counter = 0;
  engine.spawn(trivial_task(counter));
  engine.run();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(engine.unfinished_tasks(), 0u);
}

Task sleeping_task(Engine& engine, std::vector<double>& wakeups) {
  co_await engine.sleep(1.0);
  wakeups.push_back(engine.now());
  co_await engine.sleep(2.0);
  wakeups.push_back(engine.now());
}

TEST(Task, SleepAdvancesClock) {
  Engine engine;
  std::vector<double> wakeups;
  engine.spawn(sleeping_task(engine, wakeups));
  engine.run();
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_DOUBLE_EQ(wakeups[0], 1.0);
  EXPECT_DOUBLE_EQ(wakeups[1], 3.0);
}

Task child_task(Engine& engine, std::vector<int>& order) {
  order.push_back(1);
  co_await engine.sleep(1.0);
  order.push_back(2);
}

Task parent_task(Engine& engine, std::vector<int>& order) {
  order.push_back(0);
  co_await child_task(engine, order);
  order.push_back(3);
}

TEST(Task, ChildTaskCompositionResumesParent) {
  Engine engine;
  std::vector<int> order;
  engine.spawn(parent_task(engine, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

Task throwing_task(Engine& engine) {
  co_await engine.sleep(1.0);
  throw std::logic_error("task failure");
}

TEST(Task, ExceptionPropagatesFromRun) {
  Engine engine;
  engine.spawn(throwing_task(engine));
  EXPECT_THROW(engine.run(), std::logic_error);
}

Task long_sleeper(Engine& engine) { co_await engine.sleep(10.0); }

TEST(Task, FailureAmongManyTasksPropagates) {
  // The engine's run loop detects failure through a single flag raised by
  // the failing task's promise (not by scanning every task per event);
  // this checks the flag path with many healthy tasks in flight.
  Engine engine;
  for (int i = 0; i < 64; ++i) engine.spawn(long_sleeper(engine));
  engine.spawn(throwing_task(engine));
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Task, UnfinishedCountFallsAsTasksFinish) {
  Engine engine;
  std::vector<double> first, second;
  engine.spawn(sleeping_task(engine, first));
  engine.spawn(sleeping_task(engine, second));
  EXPECT_EQ(engine.unfinished_tasks(), 2u);
  engine.run();
  EXPECT_EQ(engine.unfinished_tasks(), 0u);
}

TEST(Task, ThrowingTaskCountsAsFinished) {
  // One task throws at t=1 while the other sleeps until t=10: run() rethrows
  // the exception, and the task that threw no longer counts as unfinished.
  Engine engine;
  engine.spawn(long_sleeper(engine));
  engine.spawn(throwing_task(engine));
  EXPECT_EQ(engine.unfinished_tasks(), 2u);
  try {
    engine.run();
    ADD_FAILURE() << "run() did not rethrow";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "task failure");
  }
  EXPECT_EQ(engine.unfinished_tasks(), 1u);
}

Task throwing_child(Engine& engine) {
  co_await engine.sleep(0.5);
  throw std::logic_error("child failure");
}

Task catching_parent(Engine& engine, bool& caught) {
  try {
    co_await throwing_child(engine);
  } catch (const std::logic_error&) {
    caught = true;
  }
}

TEST(Task, ChildExceptionCatchableInParent) {
  Engine engine;
  bool caught = false;
  engine.spawn(catching_parent(engine, caught));
  engine.run();
  EXPECT_TRUE(caught);
}

Task stuck_task(Engine& engine) {
  // Awaits an operation whose resume is never scheduled.
  co_await make_awaitable([](std::function<void()>) {});
  (void)engine;
}

TEST(Task, DeadlockDetected) {
  Engine engine;
  engine.spawn(stuck_task(engine));
  EXPECT_THROW(engine.run(), psk::DeadlockError);
}

// ----------------------------------------------------------------------- CPU

struct CpuFixture {
  Engine engine;
  CpuNode node{engine, 2, 1.0};
};

TEST(Cpu, SingleJobRunsAtFullSpeed) {
  CpuFixture f;
  double done_at = -1;
  f.node.submit(3.0, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(Cpu, TwoJobsUseBothCores) {
  CpuFixture f;
  double a = -1, b = -1;
  f.node.submit(3.0, [&] { a = f.engine.now(); });
  f.node.submit(3.0, [&] { b = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(a, 3.0);
  EXPECT_DOUBLE_EQ(b, 3.0);
}

TEST(Cpu, ThreeJobsShareTwoCores) {
  CpuFixture f;
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    f.node.submit(2.0, [&] { done.push_back(f.engine.now()); });
  }
  f.engine.run();
  ASSERT_EQ(done.size(), 3u);
  // Each job progresses at 2/3 work/s; 2.0 work takes 3.0 s.
  EXPECT_NEAR(done.back(), 3.0, 1e-9);
}

TEST(Cpu, LoadProcessesSlowCompute) {
  CpuFixture f;
  f.node.add_load(2);  // paper scenario: two competitors on a dual-CPU node
  double done_at = -1;
  f.node.submit(2.0, [&] { done_at = f.engine.now(); });
  f.engine.run();
  // 3 runnable jobs on 2 cores -> per-job rate 2/3 -> 2.0 work takes 3.0 s.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(Cpu, LoadRemovalRestoresSpeed) {
  CpuFixture f;
  f.node.add_load(2);
  EXPECT_EQ(f.node.load_processes(), 2);
  f.node.remove_load(2);
  EXPECT_EQ(f.node.load_processes(), 0);
  double done_at = -1;
  f.node.submit(2.0, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(Cpu, RateChangesMidJob) {
  CpuFixture f;
  // One core node for sharper arithmetic.
  CpuNode node(f.engine, 1, 1.0);
  double done_at = -1;
  node.submit(2.0, [&] { done_at = f.engine.now(); });
  // After 1s, add a competitor: remaining 1.0 work now progresses at 1/2.
  f.engine.at(1.0, [&] { node.add_load(1); });
  f.engine.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(Cpu, ZeroWorkCompletesImmediately) {
  CpuFixture f;
  double done_at = -1;
  f.node.submit(0.0, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(Cpu, FasterCpuFinishesSooner) {
  Engine engine;
  CpuNode fast(engine, 1, 2.0);
  double done_at = -1;
  fast.submit(4.0, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(Cpu, ManySequentialJobsAccumulate) {
  CpuFixture f;
  double done_at = -1;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) {
      done_at = f.engine.now();
      return;
    }
    f.node.submit(0.5, [&chain, remaining] { chain(remaining - 1); });
  };
  chain(4);
  f.engine.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(Cpu, RejectsBadConfig) {
  Engine engine;
  EXPECT_THROW(CpuNode(engine, 0, 1.0), psk::ConfigError);
  EXPECT_THROW(CpuNode(engine, 1, 0.0), psk::ConfigError);
}

// ------------------------------------------------------------------- Network

struct NetFixture {
  Engine engine;
  // 100 bytes/s links, 0.5 s latency, fast local channel.
  Network net{engine, NetworkConfig{.node_count = 4,
                                    .bandwidth_bps = 100.0,
                                    .latency = 0.5,
                                    .local_latency = 0.0}};
};

TEST(Network, SingleTransferLatencyPlusBandwidth) {
  NetFixture f;
  double done_at = -1;
  f.net.transfer(0, 1, 200, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(done_at, 0.5 + 2.0, 1e-9);
}

TEST(Network, ZeroByteTransferPaysLatency) {
  NetFixture f;
  double done_at = -1;
  f.net.transfer(0, 1, 0, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(done_at, 0.5, 1e-9);
}

TEST(Network, TwoFlowsShareUplink) {
  NetFixture f;
  double a = -1, b = -1;
  f.net.transfer(0, 1, 100, [&] { a = f.engine.now(); });
  f.net.transfer(0, 2, 100, [&] { b = f.engine.now(); });
  f.engine.run();
  // Both start after 0.5 s latency; they share node 0's 100 B/s uplink, so
  // each gets 50 B/s: 100 bytes take 2 s.
  EXPECT_NEAR(a, 2.5, 1e-9);
  EXPECT_NEAR(b, 2.5, 1e-9);
}

TEST(Network, DisjointPairsDoNotContend) {
  NetFixture f;
  double a = -1, b = -1;
  f.net.transfer(0, 1, 100, [&] { a = f.engine.now(); });
  f.net.transfer(2, 3, 100, [&] { b = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(a, 1.5, 1e-9);
  EXPECT_NEAR(b, 1.5, 1e-9);
}

TEST(Network, DownlinkContention) {
  NetFixture f;
  double a = -1, b = -1;
  f.net.transfer(0, 2, 100, [&] { a = f.engine.now(); });
  f.net.transfer(1, 2, 100, [&] { b = f.engine.now(); });
  f.engine.run();
  // Node 2's downlink is the shared bottleneck.
  EXPECT_NEAR(a, 2.5, 1e-9);
  EXPECT_NEAR(b, 2.5, 1e-9);
}

TEST(Network, ShapedLinkSlowsTransfer) {
  NetFixture f;
  f.net.set_link_bandwidth(0, 10.0);
  double done_at = -1;
  f.net.transfer(0, 1, 100, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(done_at, 0.5 + 10.0, 1e-9);
}

TEST(Network, BackgroundFlowHalvesBandwidth) {
  // An equal competing transfer on the same path halves each one's share.
  NetFixture f;
  double done_at = -1, other_at = -1;
  f.net.transfer(0, 1, 100, [&] { done_at = f.engine.now(); });
  f.net.transfer(0, 1, 100, [&] { other_at = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(done_at, 0.5 + 2.0, 1e-9);
  EXPECT_NEAR(other_at, 0.5 + 2.0, 1e-9);
}

TEST(Network, LocalTransferBypassesLinks) {
  NetFixture f;
  f.net.set_link_bandwidth(0, 1.0);  // would take 100 s over the wire
  double done_at = -1;
  f.net.transfer(0, 0, 100, [&] { done_at = f.engine.now(); });
  f.engine.run();
  EXPECT_LT(done_at, 0.01);
}

TEST(Network, StaggeredFlowsRerate) {
  NetFixture f;
  double a = -1;
  f.net.transfer(0, 1, 150, [&] { a = f.engine.now(); });
  // Second flow joins node 0's uplink 1 s after the first was admitted.
  f.engine.at(1.5, [&] { f.net.transfer(0, 2, 1000, [] {}); });
  double b = -1;
  f.engine.at(1.5, [&] {});
  (void)b;
  f.engine.run();
  // Flow A: admitted at 0.5 s, runs 1 s at 100 B/s (100 bytes done), then
  // shares with flow B (admitted 2.0 s) at 50 B/s for the remaining 50 bytes
  // -> 1 more second... but between 1.5 and 2.0 the second flow is still in
  // latency, so A still has the full link: at t=2.0, A has 150-100-50=0.
  EXPECT_NEAR(a, 2.0, 1e-9);
}

TEST(Network, RejectsBadNodeIndex) {
  NetFixture f;
  EXPECT_THROW(f.net.transfer(-1, 0, 10, [] {}), psk::ConfigError);
  EXPECT_THROW(f.net.transfer(0, 4, 10, [] {}), psk::ConfigError);
  EXPECT_THROW(f.net.set_link_bandwidth(9, 10.0), psk::ConfigError);
}

TEST(Network, NearEqualSmallFlowsCompleteAtDistinctTimes) {
  // Regression: flow completion used an absolute 1e-6 byte tolerance, so
  // on a slow link a distinct control message within a sliver of the
  // minimum-remaining flow was finished early, at the wrong timestamp.
  Engine engine;
  // 1 B/s links, no latency.
  Network net{engine, NetworkConfig{.node_count = 4,
                                    .bandwidth_bps = 1.0,
                                    .latency = 0.0,
                                    .local_latency = 0.0}};
  double a = -1, b = -1;
  net.transfer(0, 1, 2, [&] { a = engine.now(); });
  // Disjoint node pair, same size, started 100 ns later: when the first
  // flow finishes, the second has 1e-7 bytes -- 100 ns of link time --
  // left, well inside the old absolute tolerance.
  engine.at(1e-7, [&] { net.transfer(2, 3, 2, [&] { b = engine.now(); }); });
  engine.run();
  EXPECT_NEAR(a, 2.0, 1e-12);
  EXPECT_NEAR(b, 2.0 + 1e-7, 1e-12);
  EXPECT_GT(b, a);
}

// ------------------------------------------------------------------- Machine

TEST(Machine, PaperTestbedDefaults) {
  const ClusterConfig config = ClusterConfig::paper_testbed();
  EXPECT_EQ(config.nodes, 4);
  EXPECT_EQ(config.cores_per_node, 2);
  Machine machine(config);
  EXPECT_EQ(machine.node_count(), 4);
}

Task compute_then_send(Machine& machine, double& finished_at) {
  co_await machine.compute_await(0, 1.0);
  co_await machine.transfer_await(0, 1, 60'000'000);  // 1 s at link rate
  finished_at = machine.engine().now();
}

TEST(Machine, ComputeAndTransferAwaitables) {
  Machine machine(ClusterConfig::paper_testbed());
  double finished_at = -1;
  machine.engine().spawn(compute_then_send(machine, finished_at));
  machine.engine().run();
  EXPECT_NEAR(finished_at, 2.0, 1e-3);
}

TEST(Machine, CpuJitterIsBoundedAndSeeded) {
  ClusterConfig config = ClusterConfig::paper_testbed();
  config.cpu_jitter = 0.05;
  config.seed = 77;

  const auto run_once = [&] {
    Machine machine(config);
    double done_at = -1;
    machine.compute(0, 10.0, [&] { done_at = machine.engine().now(); });
    machine.engine().run();
    return done_at;
  };
  const double first = run_once();
  const double second = run_once();
  EXPECT_DOUBLE_EQ(first, second);  // same seed, same jitter
  EXPECT_GE(first, 10.0 * 0.95);
  EXPECT_LE(first, 10.0 * 1.05);
}

TEST(Machine, JitterChangesWithSeed) {
  ClusterConfig config = ClusterConfig::paper_testbed();
  config.cpu_jitter = 0.05;
  config.seed = 1;
  Machine a(config);
  config.seed = 2;
  Machine b(config);
  double ta = -1, tb = -1;
  a.compute(0, 10.0, [&] { ta = a.engine().now(); });
  b.compute(0, 10.0, [&] { tb = b.engine().now(); });
  a.engine().run();
  b.engine().run();
  EXPECT_NE(ta, tb);
}

}  // namespace
}  // namespace psk::sim
