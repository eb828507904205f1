// Tests for trace recording, nonblocking folding, statistics and the trace
// codec of the PSKARCH1 archive.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "archive/archive.h"
#include "archive/codec.h"
#include "mpi/world.h"
#include "sim/machine.h"
#include "trace/event.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace psk::trace {
namespace {

using mpi::Bytes;
using mpi::CallType;
using mpi::Request;

sim::ClusterConfig test_cluster(int nodes = 4) {
  sim::ClusterConfig config;
  config.nodes = nodes;
  config.cores_per_node = 1;
  config.link_bandwidth_bps = 100.0;
  config.latency = 0.1;
  config.local_latency = 0.0;
  return config;
}

mpi::MpiConfig no_overhead_mpi() {
  mpi::MpiConfig config;
  config.per_call_overhead = 0.0;
  config.trace_overhead = 0.0;
  config.eager_threshold = 1000;
  return config;
}

TraceEvent make_event(CallType type, int peer, Bytes bytes, double t0,
                      double t1, double pre) {
  TraceEvent event;
  event.type = type;
  event.peer = peer;
  event.bytes = bytes;
  event.t_start = t0;
  event.t_end = t1;
  event.pre_compute = pre;
  return event;
}

// ------------------------------------------------------------------ recorder

TEST(Recorder, CapturesGapsAndFinalCompute) {
  sim::Machine machine(test_cluster(2));
  mpi::World world(machine, 2, no_overhead_mpi());
  const Trace trace = record_run(
      world,
      [](mpi::Comm& comm) -> sim::Task {
        if (comm.rank() == 0) {
          co_await comm.compute(2.0);
          co_await comm.send(1, 100);
          co_await comm.compute(1.0);  // trailing compute
        } else {
          co_await comm.recv(0, 100);
        }
      },
      "toy");

  EXPECT_EQ(trace.app_name, "toy");
  ASSERT_EQ(trace.rank_count(), 2);
  const RankTrace& rank0 = trace.ranks[0];
  ASSERT_EQ(rank0.events.size(), 1u);
  EXPECT_EQ(rank0.events[0].type, CallType::kSend);
  EXPECT_NEAR(rank0.events[0].pre_compute, 2.0, 1e-9);
  EXPECT_NEAR(rank0.final_compute, 1.0, 1e-9);
  EXPECT_NEAR(rank0.total_time, 2.0 + 1.1 + 1.0, 1e-6);
}

TEST(Recorder, TraceElapsedMatchesRun) {
  sim::Machine machine(test_cluster(2));
  mpi::World world(machine, 2, no_overhead_mpi());
  Recorder recorder(2);
  world.set_observer(&recorder);
  world.launch([](mpi::Comm& comm) -> sim::Task {
    co_await comm.compute(1.0 + comm.rank());
    co_await comm.barrier();
  });
  const double elapsed = world.run();
  const Trace trace = recorder.take_trace(world, "t");
  EXPECT_DOUBLE_EQ(trace.elapsed(), elapsed);
}

// ------------------------------------------------------------------- stats

TEST(Activity, BreakdownSplitsComputeAndMpi) {
  Trace trace;
  RankTrace rank;
  rank.total_time = 10.0;
  rank.events.push_back(make_event(CallType::kSend, 1, 100, 4.0, 6.0, 4.0));
  rank.final_compute = 4.0;
  trace.ranks.push_back(rank);

  const ActivityBreakdown b = activity_breakdown(trace);
  EXPECT_NEAR(b.compute_fraction, 0.8, 1e-12);
  EXPECT_NEAR(b.mpi_fraction, 0.2, 1e-12);
}

TEST(Activity, ExchangeInteriorComputeCountsAsCompute) {
  Trace trace;
  RankTrace rank;
  rank.total_time = 10.0;
  TraceEvent ex = make_event(CallType::kExchange, -1, 100, 0.0, 10.0, 0.0);
  ex.interior_compute = 4.0;
  rank.events.push_back(ex);
  trace.ranks.push_back(rank);

  const ActivityBreakdown b = activity_breakdown(trace);
  EXPECT_NEAR(b.mpi_fraction, 0.6, 1e-12);
  EXPECT_NEAR(b.compute_fraction, 0.4, 1e-12);
}

TEST(Activity, EmptyTraceIsZero) {
  const ActivityBreakdown b = activity_breakdown(Trace{});
  EXPECT_EQ(b.compute_fraction, 0.0);
  EXPECT_EQ(b.mpi_fraction, 0.0);
}

// ------------------------------------------------------------------ folding

RankTrace exchange_pattern() {
  // The canonical NAS pattern: irecv, irecv, isend, isend, waitall.
  RankTrace rank;
  TraceEvent e1 = make_event(CallType::kIrecv, 1, 400, 1.0, 1.0, 1.0);
  e1.request = 0;
  TraceEvent e2 = make_event(CallType::kIrecv, 2, 400, 1.0, 1.0, 0.0);
  e2.request = 1;
  TraceEvent e3 = make_event(CallType::kIsend, 1, 400, 1.2, 1.2, 0.2);
  e3.request = 2;
  TraceEvent e4 = make_event(CallType::kIsend, 2, 400, 1.2, 1.2, 0.0);
  e4.request = 3;
  TraceEvent e5 = make_event(CallType::kWaitall, -1, 0, 1.3, 2.0, 0.1);
  e5.requests = {0, 1, 2, 3};
  rank.events = {e1, e2, e3, e4, e5};
  rank.total_time = 2.0;
  return rank;
}

TEST(Fold, FoldsCanonicalExchange) {
  RankTrace rank = exchange_pattern();
  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_EQ(stats.regions_created, 1u);
  EXPECT_EQ(stats.events_folded, 5u);
  EXPECT_EQ(stats.fallback_rewrites, 0u);
  ASSERT_EQ(rank.events.size(), 1u);

  const TraceEvent& region = rank.events[0];
  EXPECT_EQ(region.type, CallType::kExchange);
  EXPECT_EQ(region.parts.size(), 4u);
  EXPECT_EQ(region.bytes, 1600u);
  EXPECT_NEAR(region.pre_compute, 1.0, 1e-12);
  EXPECT_NEAR(region.interior_compute, 0.3, 1e-12);
  EXPECT_NEAR(region.t_start, 1.0, 1e-12);
  EXPECT_NEAR(region.t_end, 2.0, 1e-12);
  EXPECT_TRUE(is_fully_folded(rank));
}

TEST(Fold, SplitWaitsFoldIntoOneRegion) {
  RankTrace rank;
  TraceEvent a = make_event(CallType::kIrecv, 1, 100, 0, 0, 0);
  a.request = 0;
  TraceEvent b = make_event(CallType::kIsend, 1, 100, 0, 0, 0);
  b.request = 1;
  TraceEvent w1 = make_event(CallType::kWait, -1, 0, 0, 1, 0);
  w1.requests = {0};
  TraceEvent w2 = make_event(CallType::kWait, -1, 0, 1, 2, 0);
  w2.requests = {1};
  rank.events = {a, b, w1, w2};
  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_EQ(stats.regions_created, 1u);
  ASSERT_EQ(rank.events.size(), 1u);
  EXPECT_EQ(rank.events[0].type, CallType::kExchange);
}

TEST(Fold, BlockingCallInterruptsRegionAndFallsBack) {
  RankTrace rank;
  TraceEvent a = make_event(CallType::kIsend, 1, 100, 0, 0, 0.5);
  a.request = 0;
  TraceEvent blocking = make_event(CallType::kRecv, 2, 50, 0, 1, 0);
  TraceEvent w = make_event(CallType::kWait, -1, 0, 1, 2, 0);
  w.requests = {0};
  rank.events = {a, blocking, w};
  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_EQ(stats.regions_created, 0u);
  EXPECT_GT(stats.fallback_rewrites, 0u);
  EXPECT_TRUE(is_fully_folded(rank));
  // Isend became Send; Wait (of a send request) vanished.
  ASSERT_EQ(rank.events.size(), 2u);
  EXPECT_EQ(rank.events[0].type, CallType::kSend);
  EXPECT_EQ(rank.events[0].peer, 1);
  EXPECT_EQ(rank.events[1].type, CallType::kRecv);
}

TEST(Fold, LeftoverIrecvBecomesRecvAtWait) {
  RankTrace rank;
  TraceEvent a = make_event(CallType::kIrecv, 3, 256, 0, 0, 0.25);
  a.request = 0;
  TraceEvent blocking = make_event(CallType::kBarrier, -1, 0, 0, 1, 0);
  TraceEvent w = make_event(CallType::kWait, -1, 0, 1, 2, 0.75);
  w.requests = {0};
  rank.events = {a, blocking, w};
  fold_nonblocking(rank);
  ASSERT_EQ(rank.events.size(), 2u);
  // The Irecv's pre-compute carries into the barrier.
  EXPECT_EQ(rank.events[0].type, CallType::kBarrier);
  EXPECT_NEAR(rank.events[0].pre_compute, 0.25, 1e-12);
  EXPECT_EQ(rank.events[1].type, CallType::kRecv);
  EXPECT_EQ(rank.events[1].peer, 3);
  EXPECT_EQ(rank.events[1].bytes, 256u);
  EXPECT_TRUE(is_fully_folded(rank));
}

TEST(Fold, TrailingUnwaitedIrecvFlushedAsRecvKeepingCompute) {
  // A trace that ends with a leftover Irecv (never waited, e.g. truncated
  // recording): its bytes must survive folding as a trailing blocking Recv,
  // and its preceding computation rides along as that Recv's pre-compute.
  RankTrace rank;
  rank.events.push_back(make_event(CallType::kSend, 1, 10, 0, 1, 0));
  TraceEvent dangling = make_event(CallType::kIrecv, 2, 64, 1, 1, 0.75);
  dangling.request = 0;
  rank.events.push_back(dangling);
  rank.total_time = 2.0;
  rank.final_compute = 0.25;

  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_TRUE(is_fully_folded(rank));
  EXPECT_EQ(stats.pending_recvs_flushed, 1u);
  ASSERT_EQ(rank.events.size(), 2u);
  EXPECT_EQ(rank.events[0].type, CallType::kSend);
  EXPECT_EQ(rank.events[1].type, CallType::kRecv);
  EXPECT_EQ(rank.events[1].peer, 2);
  EXPECT_EQ(rank.events[1].bytes, 64u);
  EXPECT_NEAR(rank.events[1].pre_compute, 0.75, 1e-12);
  EXPECT_NEAR(rank.final_compute, 0.25, 1e-12);  // untouched
}

TEST(Fold, TruncatedTracePreservesTotalBytes) {
  // Several in-flight Irecvs at end-of-trace: no byte may vanish, and the
  // flushed Recvs land at the trace's end time in request order.
  RankTrace rank;
  for (int i = 0; i < 3; ++i) {
    TraceEvent e = make_event(CallType::kIrecv, i + 1,
                              static_cast<Bytes>(100 * (i + 1)),
                              0.5 * i, 0.5 * i, 0.1);
    e.request = static_cast<std::uint32_t>(i);
    rank.events.push_back(e);
  }
  rank.events.push_back(make_event(CallType::kSend, 0, 40, 1.5, 1.9, 0.05));
  rank.total_time = 2.0;

  auto total_bytes = [](const RankTrace& r) {
    Bytes sum = 0;
    for (const TraceEvent& e : r.events) sum += e.bytes;
    return sum;
  };
  const Bytes before = total_bytes(rank);

  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_TRUE(is_fully_folded(rank));
  EXPECT_EQ(stats.pending_recvs_flushed, 3u);
  EXPECT_EQ(total_bytes(rank), before);
  // The three flushed Recvs trail the Send, at the last recorded time.
  ASSERT_EQ(rank.events.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(rank.events[i].type, CallType::kRecv);
    EXPECT_EQ(rank.events[i].peer, static_cast<int>(i));
    EXPECT_NEAR(rank.events[i].t_start, 1.9, 1e-12);
  }
}

TEST(Fold, ConsecutiveRegionsFoldSeparately) {
  RankTrace rank = exchange_pattern();
  const RankTrace second = exchange_pattern();
  rank.events.insert(rank.events.end(), second.events.begin(),
                     second.events.end());
  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_EQ(stats.regions_created, 2u);
  EXPECT_EQ(rank.events.size(), 2u);
}

TEST(Fold, PureBlockingTraceUntouched) {
  RankTrace rank;
  rank.events.push_back(make_event(CallType::kSend, 1, 10, 0, 1, 0));
  rank.events.push_back(make_event(CallType::kAllreduce, -1, 8, 1, 2, 0));
  const FoldStats stats = fold_nonblocking(rank);
  EXPECT_EQ(stats.regions_created, 0u);
  EXPECT_EQ(stats.fallback_rewrites, 0u);
  EXPECT_EQ(rank.events.size(), 2u);
}

TEST(Fold, IntegrationWithRealRun) {
  sim::Machine machine(test_cluster(4));
  mpi::World world(machine, 4, no_overhead_mpi());
  Trace trace = record_run(
      world,
      [](mpi::Comm& comm) -> sim::Task {
        const int right = (comm.rank() + 1) % comm.size();
        const int left = (comm.rank() + comm.size() - 1) % comm.size();
        for (int iter = 0; iter < 3; ++iter) {
          std::vector<mpi::Request> reqs;
          reqs.push_back(comm.irecv(left, 400));
          co_await comm.compute(0.05);  // boundary packing
          reqs.push_back(comm.isend(right, 400));
          co_await comm.waitall(reqs);
          co_await comm.allreduce(8);
        }
      },
      "ring");

  const FoldStats stats = fold_nonblocking(trace);
  EXPECT_EQ(stats.regions_created, 12u);  // 3 iters x 4 ranks
  EXPECT_TRUE(is_fully_folded(trace));
  for (const RankTrace& rank : trace.ranks) {
    ASSERT_EQ(rank.events.size(), 6u);  // per iter: Exchange + Allreduce
    EXPECT_EQ(rank.events[0].type, CallType::kExchange);
    EXPECT_NEAR(rank.events[0].interior_compute, 0.05, 1e-6);
    EXPECT_EQ(rank.events[1].type, CallType::kAllreduce);
  }
}

// ----------------------------------------------------------------------- io

Trace sample_trace() {
  Trace trace;
  trace.app_name = "sample";
  RankTrace rank;
  rank.rank = 0;
  rank.total_time = 12.5;
  rank.final_compute = 0.5;
  TraceEvent send = make_event(CallType::kSend, 1, 1024, 1.0, 2.0, 1.0);
  send.tag = 5;
  TraceEvent exchange =
      make_event(CallType::kExchange, -1, 800, 3.0, 4.0, 1.0);
  exchange.parts.push_back(mpi::PeerBytes{1, 400, true});
  exchange.parts.push_back(mpi::PeerBytes{2, 400, false});
  exchange.interior_compute = 0.125;
  TraceEvent isend = make_event(CallType::kIsend, 2, 64, 4.5, 4.5, 0.5);
  isend.request = 7;
  TraceEvent waitall = make_event(CallType::kWaitall, -1, 0, 5.0, 6.0, 0.5);
  waitall.requests = {7, 8};
  rank.events = {send, exchange, isend, waitall};
  trace.ranks.push_back(rank);

  RankTrace rank1;
  rank1.rank = 1;
  rank1.total_time = 11.0;
  trace.ranks.push_back(rank1);
  return trace;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.app_name, b.app_name);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const RankTrace& x = a.ranks[r];
    const RankTrace& y = b.ranks[r];
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_DOUBLE_EQ(x.total_time, y.total_time);
    EXPECT_DOUBLE_EQ(x.final_compute, y.final_compute);
    ASSERT_EQ(x.events.size(), y.events.size());
    for (std::size_t e = 0; e < x.events.size(); ++e) {
      const TraceEvent& p = x.events[e];
      const TraceEvent& q = y.events[e];
      EXPECT_EQ(p.type, q.type);
      EXPECT_EQ(p.peer, q.peer);
      EXPECT_EQ(p.bytes, q.bytes);
      EXPECT_EQ(p.tag, q.tag);
      EXPECT_EQ(p.parts, q.parts);
      EXPECT_EQ(p.request, q.request);
      EXPECT_EQ(p.requests, q.requests);
      EXPECT_DOUBLE_EQ(p.t_start, q.t_start);
      EXPECT_DOUBLE_EQ(p.t_end, q.t_end);
      EXPECT_DOUBLE_EQ(p.pre_compute, q.pre_compute);
      EXPECT_DOUBLE_EQ(p.interior_compute, q.interior_compute);
    }
  }
}

Trace round_trip(const Trace& trace) {
  std::string payload;
  archive::encode(payload, trace);
  return archive::decode_trace(payload).or_throw();
}

/// A one-rank trace payload whose single event starts with call type `type`
/// and carries zeros for every other field.
std::string one_event_payload(std::uint8_t type) {
  std::string payload;
  archive::put_string(payload, "x");
  archive::put_u32(payload, 1);    // ranks
  archive::put_i32(payload, 0);    // rank id
  archive::put_f64(payload, 1.0);  // total_time
  archive::put_f64(payload, 0.0);  // final_compute
  archive::put_u64(payload, 1);    // events
  archive::put_u8(payload, type);
  payload.append(76, '\0');  // the rest of the event, no parts or requests
  return payload;
}

TEST(Io, RoundTripPreservesEverything) {
  const Trace original = sample_trace();
  expect_traces_equal(original, round_trip(original));
}

TEST(Io, RoundTripExactDoubles) {
  Trace trace;
  trace.app_name = "doubles";
  RankTrace rank;
  rank.total_time = 1.0 / 3.0;
  rank.final_compute = 1e-17;
  trace.ranks.push_back(rank);
  const Trace parsed = round_trip(trace);
  EXPECT_EQ(parsed.ranks[0].total_time, 1.0 / 3.0);
  EXPECT_EQ(parsed.ranks[0].final_compute, 1e-17);
}

TEST(Io, RejectsBadHeader) {
  // A payload version newer than this reader is refused, not guessed at.
  std::string payload;
  archive::encode(payload, sample_trace());
  const auto parsed =
      archive::decode_trace(payload, archive::kTraceVersion + 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, archive::ErrorCode::kBadVersion);
}

TEST(Io, RejectsTruncated) {
  std::string payload;
  archive::encode(payload, sample_trace());
  const auto parsed =
      archive::decode_trace(std::string_view(payload).substr(0, payload.size() - 3));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, archive::ErrorCode::kTruncated);
}

TEST(Io, RejectsMalformedEvent) {
  ASSERT_TRUE(archive::decode_trace(one_event_payload(0)).ok());
  const auto parsed = archive::decode_trace(one_event_payload(0xEE));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, archive::ErrorCode::kCorrupt);
  EXPECT_NE(parsed.error().message.find("invalid call type"),
            std::string::npos)
      << parsed.error().render();
}

TEST(Io, FileRoundTrip) {
  const Trace original = sample_trace();
  const std::string path = testing::TempDir() + "/psk_trace_test.trace";
  archive::save(path, original).or_throw();
  const Trace loaded = archive::load_trace(path).or_throw();
  expect_traces_equal(original, loaded);
}

TEST(Io, RecordedRunRoundTrips) {
  sim::Machine machine(test_cluster(2));
  mpi::World world(machine, 2, no_overhead_mpi());
  const Trace trace = record_run(
      world,
      [](mpi::Comm& comm) -> sim::Task {
        co_await comm.compute(0.5);
        co_await comm.allreduce(64);
      },
      "roundtrip");
  expect_traces_equal(trace, round_trip(trace));
}

}  // namespace
}  // namespace psk::trace
