// Unit and integration tests for the virtual MPI runtime.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mpi/comm.h"
#include "mpi/message_engine.h"
#include "mpi/types.h"
#include "mpi/world.h"
#include "sim/machine.h"
#include "util/error.h"

namespace psk::mpi {
namespace {

/// Machine with easy arithmetic: 100 B/s links, 0.1 s latency, 1 core/node,
/// no overheads, no jitter.
sim::ClusterConfig test_cluster(int nodes = 4) {
  sim::ClusterConfig config;
  config.nodes = nodes;
  config.cores_per_node = 1;
  config.cpu_speed = 1.0;
  config.link_bandwidth_bps = 100.0;
  config.latency = 0.1;
  config.local_bandwidth_bps = 1e9;
  config.local_latency = 0.0;
  return config;
}

MpiConfig no_overhead_mpi() {
  MpiConfig config;
  config.per_call_overhead = 0.0;
  config.trace_overhead = 0.0;
  config.eager_threshold = 1000;
  config.rendezvous_handshake_latencies = 2.0;
  return config;
}

TEST(World, SizeAndMapping) {
  sim::Machine machine(test_cluster(4));
  World world(machine, 4, no_overhead_mpi());
  EXPECT_EQ(world.size(), 4);
  EXPECT_EQ(world.message_engine().node_of(0), 0);
  EXPECT_EQ(world.message_engine().node_of(3), 3);
}

TEST(World, OversubscribedMappingRoundRobin) {
  sim::Machine machine(test_cluster(2));
  World world(machine, 4, no_overhead_mpi());
  EXPECT_EQ(world.message_engine().node_of(0), 0);
  EXPECT_EQ(world.message_engine().node_of(1), 1);
  EXPECT_EQ(world.message_engine().node_of(2), 0);
  EXPECT_EQ(world.message_engine().node_of(3), 1);
}

TEST(World, RejectsDoubleLaunch) {
  sim::Machine machine(test_cluster(2));
  World world(machine, 2, no_overhead_mpi());
  world.launch([](Comm&) -> sim::Task { co_return; });
  EXPECT_THROW(world.launch([](Comm&) -> sim::Task { co_return; }),
               psk::ConfigError);
}

// ------------------------------------------------------ blocking send/recv

TEST(P2P, EagerSendRecvTiming) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  std::vector<double> done(2, -1);
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 100);  // eager (<=1000)
    } else {
      co_await comm.recv(0, 100);
    }
    done[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  const double elapsed = world.run();
  // Transfer: 0.1 latency + 100/100 = 1.1 s for both sides.
  EXPECT_NEAR(done[0], 1.1, 1e-9);
  EXPECT_NEAR(done[1], 1.1, 1e-9);
  EXPECT_NEAR(elapsed, 1.1, 1e-9);
}

TEST(P2P, EagerSendCompletesWithoutReceiver) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double send_done = -1, recv_done = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 100);
      send_done = comm.now();
    } else {
      co_await comm.compute(10.0);  // receiver busy for 10 s
      co_await comm.recv(0, 100);
      recv_done = comm.now();
    }
  });
  world.run();
  // Eager: sender finishes as soon as bytes are on the wire, long before the
  // receiver posts; the late recv completes immediately (message buffered).
  EXPECT_NEAR(send_done, 1.1, 1e-9);
  EXPECT_NEAR(recv_done, 10.0, 1e-6);
}

TEST(P2P, RendezvousWaitsForReceiver) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double send_done = -1, recv_done = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 2000);  // > eager threshold of 1000
      send_done = comm.now();
    } else {
      co_await comm.compute(5.0);
      co_await comm.recv(0, 2000);
      recv_done = comm.now();
    }
  });
  world.run();
  // Transfer starts only at recv post (t=5) + 2*0.1 handshake, then
  // 0.1 latency + 2000/100 = 20.1 s on the wire.
  EXPECT_NEAR(send_done, 5.0 + 0.2 + 20.1, 1e-9);
  EXPECT_NEAR(recv_done, 5.0 + 0.2 + 20.1, 1e-9);
}

TEST(P2P, RendezvousEarlyReceiverWaitsForSender) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double recv_done = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.compute(5.0);
      co_await comm.send(1, 2000);
    } else {
      co_await comm.recv(0, 2000);
      recv_done = comm.now();
    }
  });
  world.run();
  EXPECT_NEAR(recv_done, 5.0 + 0.2 + 20.1, 1e-9);
}

TEST(P2P, TagMatchingSeparatesChannels) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  std::vector<int> arrival_order;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 10, /*tag=*/7);
      co_await comm.send(1, 10, /*tag=*/9);
    } else {
      // Receive in the opposite tag order.
      co_await comm.recv(0, 10, /*tag=*/9);
      arrival_order.push_back(9);
      co_await comm.recv(0, 10, /*tag=*/7);
      arrival_order.push_back(7);
    }
  });
  world.run();
  EXPECT_EQ(arrival_order, (std::vector<int>{9, 7}));
}

TEST(P2P, FifoOrderWithinChannel) {
  sim::Machine machine(test_cluster());
  MpiConfig mpi = no_overhead_mpi();
  World world(machine, 2, mpi);
  // Two same-tag messages with different sizes: receiver must see them in
  // send order (non-overtaking).
  std::vector<double> recv_times;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 500);
      co_await comm.send(1, 100);
    } else {
      co_await comm.recv(0, 500);
      recv_times.push_back(comm.now());
      co_await comm.recv(0, 100);
      recv_times.push_back(comm.now());
    }
  });
  world.run();
  ASSERT_EQ(recv_times.size(), 2u);
  EXPECT_LT(recv_times[0], recv_times[1]);
}

// ------------------------------------------------------------- nonblocking

TEST(P2P, IsendIrecvWaitall) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double done_at = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    const int peer = 1 - comm.rank();
    std::vector<Request> reqs;
    reqs.push_back(comm.irecv(peer, 100));
    reqs.push_back(comm.isend(peer, 100));
    co_await comm.waitall(reqs);
    if (comm.rank() == 0) done_at = comm.now();
  });
  world.run();
  // Symmetric exchange: both directions overlap; each link direction carries
  // one flow, so both complete at 1.1 s.
  EXPECT_NEAR(done_at, 1.1, 1e-9);
}

TEST(P2P, OverlapComputeWithCommunication) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double done_at = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 100);
      co_await comm.compute(1.0);  // overlaps the 1.1 s transfer
      co_await comm.wait(r);
      done_at = comm.now();
    } else {
      co_await comm.recv(0, 100);
    }
  });
  world.run();
  EXPECT_NEAR(done_at, 1.1, 1e-9);  // not 2.1: compute overlapped
}

TEST(P2P, WaitOnCompletedRequestReturnsImmediately) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  double wait_cost = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 10);
      co_await comm.compute(5.0);  // transfer long done
      const double before = comm.now();
      co_await comm.wait(r);
      wait_cost = comm.now() - before;
    } else {
      co_await comm.recv(0, 10);
    }
  });
  world.run();
  EXPECT_NEAR(wait_cost, 0.0, 1e-9);
}

TEST(P2P, InvalidRankThrows) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(5, 10);  // rank 5 does not exist
    }
  });
  EXPECT_THROW(world.run(), psk::ConfigError);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 1) {
      co_await comm.recv(0, 10);  // rank 0 never sends
    }
  });
  EXPECT_THROW(world.run(), psk::DeadlockError);
}

// ------------------------------------------------------ matching channels

TEST(Channels, ParkedReceiveHoldsOneChannel) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  MessageEngine& engine = world.message_engine();
  EXPECT_EQ(engine.live_channels(), 0u);
  engine.post_recv(/*dst=*/1, /*src=*/0, /*tag=*/7);
  EXPECT_EQ(engine.live_channels(), 1u);
  engine.post_send(/*src=*/0, /*dst=*/1, /*bytes=*/10, /*tag=*/7);
  EXPECT_EQ(engine.live_channels(), 0u);
}

TEST(Channels, MatchedTrafficLeavesNoChannels) {
  // Receive-first and send-first, eager (100 B) and rendezvous (2000 B):
  // while the first side waits its channel is live; once matched it is gone.
  for (const Bytes bytes : {Bytes{100}, Bytes{2000}}) {
    for (const bool receiver_first : {true, false}) {
      SCOPED_TRACE(testing::Message() << bytes << " B, receiver_first="
                                      << receiver_first);
      sim::Machine machine(test_cluster());
      World world(machine, 2, no_overhead_mpi());
      std::size_t live_while_waiting = 0;
      world.launch([&](Comm& comm) -> sim::Task {
        const bool late = (comm.rank() == 0) == receiver_first;
        if (late) {
          co_await comm.compute(5.0);
          live_while_waiting = world.message_engine().live_channels();
        }
        if (comm.rank() == 0) {
          co_await comm.send(1, bytes, /*tag=*/3);
        } else {
          co_await comm.recv(0, bytes, /*tag=*/3);
        }
      });
      world.run();
      EXPECT_EQ(live_while_waiting, 1u);
      EXPECT_EQ(world.message_engine().messages_delivered(), 1u);
      EXPECT_EQ(world.message_engine().live_channels(), 0u);
    }
  }
}

TEST(Channels, CollectivesLeaveNoChannels) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      co_await comm.barrier();
      co_await comm.allreduce(64);
    }
  });
  world.run();
  EXPECT_GT(world.message_engine().messages_delivered(), 0u);
  EXPECT_EQ(world.message_engine().live_channels(), 0u);
}

// ------------------------------------------------------------- collectives

TEST(Collective, BarrierSynchronizes) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  std::vector<double> after(4, -1);
  world.launch([&](Comm& comm) -> sim::Task {
    // Rank r computes r seconds, then barriers.
    co_await comm.compute(static_cast<double>(comm.rank()));
    co_await comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  world.run();
  // Nobody exits the barrier before the slowest rank (3 s) entered it.
  for (double t : after) EXPECT_GE(t, 3.0);
}

TEST(Collective, BcastDeliversToAll) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  std::vector<double> done(4, -1);
  world.launch([&](Comm& comm) -> sim::Task {
    co_await comm.bcast(0, 400);
    done[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  world.run();
  for (double t : done) EXPECT_GT(t, 0.0);
}

TEST(Collective, NonZeroRootBcast) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  std::vector<double> done(4, -1);
  world.launch([&](Comm& comm) -> sim::Task {
    co_await comm.bcast(2, 400);
    done[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  world.run();
  for (double t : done) EXPECT_GT(t, 0.0);
}

TEST(Collective, ReduceCompletesOnAllRoots) {
  for (int root = 0; root < 4; ++root) {
    sim::Machine machine(test_cluster());
    World world(machine, 4, no_overhead_mpi());
    world.launch([&](Comm& comm) -> sim::Task {
      co_await comm.reduce(root, 64);
    });
    EXPECT_NO_THROW(world.run()) << "root=" << root;
  }
}

TEST(Collective, AllreducePowerOfTwo) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  std::vector<double> done(4, -1);
  world.launch([&](Comm& comm) -> sim::Task {
    co_await comm.allreduce(64);
    done[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  world.run();
  // Recursive doubling: everyone finishes together (symmetric).
  for (double t : done) EXPECT_NEAR(t, done[0], 1e-9);
}

TEST(Collective, AllreduceNonPowerOfTwoFallsBack) {
  sim::Machine machine(test_cluster(3));
  World world(machine, 3, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task { co_await comm.allreduce(64); });
  EXPECT_NO_THROW(world.run());
}

TEST(Collective, AllgatherAndAlltoallComplete) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    co_await comm.allgather(50);
    co_await comm.alltoall(50);
  });
  EXPECT_NO_THROW(world.run());
}

TEST(Collective, AllgatherRingForNonPowerOfTwo) {
  sim::Machine machine(test_cluster(3));
  World world(machine, 3, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task { co_await comm.allgather(30); });
  EXPECT_NO_THROW(world.run());
}

TEST(Collective, AlltoallvWithAsymmetricSizes) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    std::vector<Bytes> counts(4);
    for (int peer = 0; peer < 4; ++peer) {
      counts[static_cast<std::size_t>(peer)] =
          static_cast<Bytes>(10 * (comm.rank() + 1) + peer);
    }
    co_await comm.alltoallv(counts);
  });
  EXPECT_NO_THROW(world.run());
}

TEST(Collective, AlltoallvRejectsWrongCountLength) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    std::vector<Bytes> too_short(2, 1);  // needs 4 entries
    co_await comm.alltoallv(too_short);
  });
  EXPECT_THROW(world.run(), psk::ConfigError);
}

TEST(Collective, BackToBackCollectivesDoNotInterfere) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  world.launch([&](Comm& comm) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await comm.allreduce(8);
      co_await comm.barrier();
      co_await comm.bcast(i % 4, 100);
    }
  });
  EXPECT_NO_THROW(world.run());
}

// ----------------------------------------------------------- interactions

TEST(Sharing, CpuLoadSlowsComputeBoundRun) {
  const auto run_with_load = [](int load) {
    sim::ClusterConfig cluster = test_cluster();
    cluster.cores_per_node = 2;
    sim::Machine machine(cluster);
    machine.node(0).add_load(load);
    World world(machine, 4, no_overhead_mpi());
    world.launch([&](Comm& comm) -> sim::Task {
      for (int i = 0; i < 5; ++i) {
        co_await comm.compute(1.0);
        co_await comm.barrier();
      }
    });
    return world.run();
  };
  const double dedicated = run_with_load(0);
  const double shared = run_with_load(2);
  // 2 competitors on a dual-core node: rank gets 2/3 of a core -> 1.5x
  // compute slowdown.  The run is 5 s compute + ~1 s of barrier latency, so
  // end-to-end: (5*1.5 + 1) / (5 + 1) = ~1.417.
  EXPECT_NEAR(dedicated, 6.0, 0.05);
  EXPECT_NEAR(shared / dedicated, 8.5 / 6.0, 0.02);
}

TEST(Sharing, ShapedLinkSlowsCommunicationBoundRun) {
  const auto run_with_bandwidth = [](double bps) {
    sim::Machine machine(test_cluster());
    machine.network().set_link_bandwidth(0, bps);
    World world(machine, 4, no_overhead_mpi());
    world.launch([&](Comm& comm) -> sim::Task {
      for (int i = 0; i < 3; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(1, 900);
        } else if (comm.rank() == 1) {
          co_await comm.recv(0, 900);
        }
        co_await comm.barrier();
      }
    });
    return world.run();
  };
  const double fast = run_with_bandwidth(100.0);
  const double slow = run_with_bandwidth(10.0);
  EXPECT_GT(slow / fast, 5.0);
}

// -------------------------------------------------------------- observation

class CountingObserver : public CallObserver {
 public:
  void on_call(int rank, const CallRecord& record) override {
    ++count;
    last_rank = rank;
    last = record;
  }
  int count = 0;
  int last_rank = -1;
  CallRecord last;
};

TEST(Observer, SeesPublicCallsOnly) {
  sim::Machine machine(test_cluster());
  World world(machine, 4, no_overhead_mpi());
  CountingObserver observer;
  world.set_observer(&observer);
  world.launch([&](Comm& comm) -> sim::Task {
    co_await comm.allreduce(64);  // internally many p2p messages
  });
  world.run();
  // One record per rank: internal algorithm messages are invisible.
  EXPECT_EQ(observer.count, 4);
  EXPECT_EQ(observer.last.type, CallType::kAllreduce);
}

TEST(Observer, RecordsTimesAndPeer) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  CountingObserver observer;
  world.comm(0).set_observer(&observer);
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.compute(2.0);
      co_await comm.send(1, 100, /*tag=*/3);
    } else {
      co_await comm.recv(0, 100, /*tag=*/3);
    }
  });
  world.run();
  ASSERT_EQ(observer.count, 1);
  EXPECT_EQ(observer.last.type, CallType::kSend);
  EXPECT_EQ(observer.last.peer, 1);
  EXPECT_EQ(observer.last.bytes, 100u);
  EXPECT_EQ(observer.last.tag, 3);
  EXPECT_NEAR(observer.last.t_start, 2.0, 1e-9);
  EXPECT_NEAR(observer.last.t_end, 2.0 + 1.1, 1e-6);
}

TEST(Observer, SendrecvRecordsBothParts) {
  sim::Machine machine(test_cluster());
  World world(machine, 2, no_overhead_mpi());
  CountingObserver observer;
  world.comm(0).set_observer(&observer);
  world.launch([&](Comm& comm) -> sim::Task {
    const int peer = 1 - comm.rank();
    co_await comm.sendrecv(peer, 100, peer, 200);
  });
  world.run();
  ASSERT_EQ(observer.last.parts.size(), 2u);
  EXPECT_TRUE(observer.last.parts[0].outgoing);
  EXPECT_FALSE(observer.last.parts[1].outgoing);
}

TEST(Observer, CallTypeNamesRoundTrip) {
  for (auto t : {CallType::kSend, CallType::kRecv, CallType::kIsend,
                 CallType::kIrecv, CallType::kWait, CallType::kWaitall,
                 CallType::kSendrecv, CallType::kBarrier, CallType::kBcast,
                 CallType::kReduce, CallType::kAllreduce, CallType::kAllgather,
                 CallType::kAlltoall, CallType::kAlltoallv,
                 CallType::kExchange}) {
    EXPECT_EQ(call_type_from_name(call_type_name(t)), t);
  }
  EXPECT_THROW(call_type_from_name("Bogus"), psk::FormatError);
}

TEST(Observer, PerCallOverheadCharged) {
  sim::ClusterConfig cluster = test_cluster();
  sim::Machine machine(cluster);
  MpiConfig mpi = no_overhead_mpi();
  mpi.per_call_overhead = 0.01;
  World world(machine, 2, mpi);
  double done_at = -1;
  world.launch([&](Comm& comm) -> sim::Task {
    if (comm.rank() == 0) {
      co_await comm.send(1, 100);
      done_at = comm.now();
    } else {
      co_await comm.recv(0, 100);
    }
  });
  world.run();
  EXPECT_NEAR(done_at, 0.01 + 1.1, 1e-9);
}

}  // namespace
}  // namespace psk::mpi
