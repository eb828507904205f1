// Tests for psk::guard: deterministic deadlock detection, semantic
// validation, salvage of damaged skeletons -- plus the robustness satellites
// that ride with them (cache disk-failure degradation, journal replay
// accounting).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "cache/cache.h"
#include "guard/deadlock.h"
#include "guard/salvage.h"
#include "guard/validate.h"
#include "mpi/comm.h"
#include "mpi/world.h"
#include "obs/metrics.h"
#include "runner/journal.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"
#include "util/error.h"

namespace psk {
namespace {

namespace fs = std::filesystem;

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

mpi::MpiConfig no_overhead_mpi() {
  mpi::MpiConfig config;
  config.per_call_overhead = 0.0;
  config.trace_overhead = 0.0;
  config.eager_threshold = 1000;
  config.rendezvous_handshake_latencies = 2.0;
  return config;
}

/// A unique scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("psk_guard_" + tag + "_" +
               std::to_string(::testing::UnitTest::GetInstance()
                                  ->random_seed()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------ deadlock detection

/// Runs a 2-rank world where rank 1 posts a Recv rank 0 never matches.
guard::DeadlockReport run_unmatched_recv() {
  sim::Machine machine(test_cluster(2));
  mpi::World world(machine, 2, no_overhead_mpi());
  guard::DeadlockMonitor monitor(world);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 1) {
      co_await comm.compute(1.0);
      co_await comm.recv(0, 100, 42);  // never sent
    } else {
      co_await comm.compute(0.5);
    }
  });
  try {
    world.run();
  } catch (const guard::DeadlockDetected& e) {
    return e.report();
  }
  ADD_FAILURE() << "expected DeadlockDetected";
  return {};
}

TEST(Deadlock, UnmatchedRecvYieldsStructuredReport) {
  const guard::DeadlockReport report = run_unmatched_recv();
  EXPECT_EQ(report.total_ranks, 2);
  ASSERT_EQ(report.blocked.size(), 1u);
  EXPECT_EQ(report.blocked[0].rank, 1);
  EXPECT_EQ(report.blocked[0].peer, 0);
  EXPECT_EQ(report.blocked[0].tag, 42);
  EXPECT_FALSE(report.blocked[0].is_send);
  // Rank 0 finished; the wait chain leads to a rank that never posted.
  EXPECT_TRUE(report.cycle.empty());
  // Detection fires the moment the sim goes globally idle -- after rank 1's
  // 1 s compute -- not at some engine time limit.
  EXPECT_NEAR(report.time, 1.0, 1e-9);
  EXPECT_NE(report.render().find("rank 1"), std::string::npos);
  EXPECT_NE(report.render().find("wait-for cycle: none"), std::string::npos);
}

TEST(Deadlock, DetectsUnderDaemonEvents) {
  // Daemon events (load flutter, fault timers) keep the event queue busy
  // forever; detection must key off *progress* work only and still fire at
  // the same simulated instant.
  sim::Machine machine(test_cluster(2));
  mpi::World world(machine, 2, no_overhead_mpi());
  guard::DeadlockMonitor monitor(world);
  sim::Engine& engine = machine.engine();
  std::function<void()> tick = [&] { engine.daemon_after(0.25, tick); };
  engine.daemon_after(0.25, tick);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    if (comm.rank() == 1) {
      co_await comm.compute(1.0);
      co_await comm.recv(0, 7);
    }
  });
  try {
    world.run();
    FAIL() << "expected DeadlockDetected";
  } catch (const guard::DeadlockDetected& e) {
    EXPECT_NEAR(e.report().time, 1.0, 1e-9);
  }
}

TEST(Deadlock, CircularWaitNamesTheCycle) {
  // 0 waits on 1, 1 waits on 2, 2 waits on 0: a real wait-for cycle.
  sim::Machine machine(test_cluster(3));
  mpi::World world(machine, 3, no_overhead_mpi());
  guard::DeadlockMonitor monitor(world);
  world.launch([&](mpi::Comm& comm) -> sim::Task {
    co_await comm.recv((comm.rank() + 1) % 3, 0);
  });
  try {
    world.run();
    FAIL() << "expected DeadlockDetected";
  } catch (const guard::DeadlockDetected& e) {
    const guard::DeadlockReport& report = e.report();
    EXPECT_EQ(report.total_ranks, 3);
    EXPECT_EQ(report.blocked.size(), 3u);
    ASSERT_EQ(report.cycle.size(), 3u);
    // The cycle is a rotation of 0 -> 1 -> 2 -> 0; walking it must follow
    // each rank's wait-for edge.
    for (std::size_t i = 0; i < report.cycle.size(); ++i) {
      const int rank = report.cycle[i];
      const int next = report.cycle[(i + 1) % report.cycle.size()];
      EXPECT_EQ(next, (rank + 1) % 3);
    }
    EXPECT_NE(std::string(e.what()).find("wait-for cycle: "),
              std::string::npos);
  }
}

TEST(Deadlock, SameSimulatedTimeAcrossJobs) {
  // The acceptance bar: detection is a pure function of simulated state, so
  // a sweep of deadlocking cells reports bit-identical times and renderings
  // whether it runs serial or on a pool.
  auto run_cells = [](int jobs) {
    std::vector<std::string> cells{"a", "b", "c", "d"};
    runner::JournaledSweepOptions options;
    options.jobs = jobs;
    return runner::journaled_sweep(
        cells,
        [&](std::size_t) {
          const guard::DeadlockReport report = run_unmatched_recv();
          char time_bits[32];
          std::snprintf(time_bits, sizeof time_bits, "%a", report.time);
          return std::string(time_bits) + "\n" + report.render();
        },
        options);
  };
  const std::vector<runner::CellResult> serial = run_cells(1);
  const std::vector<runner::CellResult> pooled = run_cells(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, runner::CellResult::Status::kOk);
    EXPECT_EQ(serial[i], pooled[i]) << "cell " << i;
  }
}

// ------------------------------------------------------------- validation

trace::Trace matched_pair_trace() {
  trace::Trace trace;
  trace.app_name = "t";
  for (int rank = 0; rank < 2; ++rank) {
    trace::RankTrace rt;
    rt.rank = rank;
    rt.total_time = 1.0;
    trace::TraceEvent event;
    event.type = rank == 0 ? mpi::CallType::kSend : mpi::CallType::kRecv;
    event.peer = 1 - rank;
    event.bytes = 100;
    event.tag = 3;
    event.t_start = 0.1;
    event.t_end = 0.2;
    rt.events.push_back(event);
    trace.ranks.push_back(rt);
  }
  return trace;
}

TEST(Validate, CleanTracePasses) {
  const guard::ValidationReport report =
      guard::validate_trace(matched_pair_trace());
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_NO_THROW(guard::require_valid(report));
}

TEST(Validate, UnmatchedSendIsAnError) {
  trace::Trace trace = matched_pair_trace();
  trace.ranks[1].events.clear();  // drop the matching recv
  const guard::ValidationReport report = guard::validate_trace(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.render().find("deadlock"), std::string::npos);
  EXPECT_THROW(guard::require_valid(report), guard::ValidationError);
}

TEST(Validate, NegativeGapAndBadPeerAreErrors) {
  trace::Trace trace = matched_pair_trace();
  trace.ranks[0].events[0].pre_compute = -1.0;
  trace.ranks[1].events[0].peer = 9;  // outside the 2-rank world
  const guard::ValidationReport report = guard::validate_trace(trace);
  EXPECT_GE(report.error_count(), 2u);
}

TEST(Validate, NonFiniteTimesAreErrors) {
  trace::Trace trace = matched_pair_trace();
  trace.ranks[0].events[0].pre_compute =
      std::numeric_limits<double>::infinity();
  trace.ranks[1].total_time = std::numeric_limits<double>::quiet_NaN();
  const guard::ValidationReport report = guard::validate_trace(trace);
  EXPECT_GE(report.error_count(), 2u) << report.render();
}

TEST(Validate, ValidationErrorCarriesReport) {
  trace::Trace trace = matched_pair_trace();
  trace.ranks[0].events[0].pre_compute = -1.0;
  try {
    guard::require_valid(guard::validate_trace(trace));
    FAIL() << "expected ValidationError";
  } catch (const guard::ValidationError& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_NE(std::string(e.what()).find("pre_compute"), std::string::npos);
  }
}

sig::Signature tiny_signature() {
  sig::Signature signature;
  signature.app_name = "s";
  signature.threshold = 0.1;
  sig::RankSignature rank;
  rank.rank = 0;
  rank.total_time = 1.0;
  sig::SigEvent event;
  event.type = mpi::CallType::kBarrier;
  event.peer = -1;
  event.mean_duration = 0.1;
  rank.roots.push_back(sig::SigNode::leaf(event));
  signature.ranks.push_back(rank);
  return signature;
}

TEST(Validate, ZeroIterationLoopIsAnError) {
  sig::Signature signature = tiny_signature();
  signature.ranks[0].roots.push_back(sig::SigNode::loop(0, {}));
  const guard::ValidationReport report =
      guard::validate_signature(signature);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.render().find("0 iterations"), std::string::npos)
      << report.render();
}

TEST(Validate, SkeletonScalingFactorBelowOneIsAnError) {
  skeleton::Skeleton skeleton;
  skeleton.app_name = "k";
  skeleton.scaling_factor = 0.5;
  skeleton.ranks = tiny_signature().ranks;
  const guard::ValidationReport report =
      guard::validate_skeleton(skeleton);
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------- salvage

skeleton::Skeleton two_rank_skeleton() {
  skeleton::Skeleton skeleton;
  skeleton.app_name = "k";
  skeleton.scaling_factor = 2.0;
  skeleton.ranks = tiny_signature().ranks;
  sig::RankSignature second = skeleton.ranks[0];
  second.rank = 1;
  skeleton.ranks.push_back(second);
  return skeleton;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The PSKARCH1 container bytes archive::save would write for `skeleton`.
std::string archived(const skeleton::Skeleton& skeleton) {
  std::string payload;
  archive::encode(payload, skeleton);
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return bytes;
}

/// Container bytes of a skeleton payload that ends right after its rank
/// count field, which declares `ranks`.
std::string archived_header_only(std::uint32_t ranks) {
  std::string payload;
  archive::put_string(payload, "k");
  archive::put_f64(payload, 2.0);  // scaling factor
  archive::put_f64(payload, 1.0);  // intended time
  archive::put_f64(payload, 1.0);  // smallest good time
  archive::put_bool(payload, true);
  archive::put_u32(payload, ranks);
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return bytes;
}

TEST(Salvage, CleanSkeletonFileIsClean) {
  ScratchDir dir("salvage_clean");
  const std::string path = dir.file("k.skel");
  skeleton::Skeleton skeleton;
  skeleton.app_name = "k";
  skeleton.scaling_factor = 2.0;
  skeleton.ranks = tiny_signature().ranks;
  ASSERT_TRUE(archive::save(path, skeleton).ok());
  guard::SalvageReport report;
  const auto salvaged = guard::salvage_skeleton_file(path, report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(salvaged->rank_count(), 1);
}

TEST(Salvage, TruncatedArchiveKeepsDecodedPrefix) {
  ScratchDir dir("salvage_arch");
  const std::string path = dir.file("k.pskarch");
  ASSERT_TRUE(archive::save(path, two_rank_skeleton()).ok());
  // Drop the checksum trailer and a little payload: the strict loader
  // refuses the file, salvage keeps the whole first rank.
  const std::string bytes = read_bytes(path);
  const std::string torn = bytes.substr(0, bytes.size() - 12);
  guard::SalvageReport report;
  const auto salvaged = guard::salvage_skeleton_bytes(torn, report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.ranks_expected, 2u);
  EXPECT_EQ(report.ranks_kept, 1u);
  EXPECT_EQ(salvaged->rank_count(), 1);
  EXPECT_EQ(salvaged->app_name, "k");
  // The report carries the offset where the dropped rank starts.
  EXPECT_GT(report.byte_offset, archive::kHeaderSize);
  EXPECT_LT(report.byte_offset, torn.size());
  // The file salvor reaches the same prefix after the strict load fails.
  write_file(path, torn);
  guard::SalvageReport file_report;
  const auto from_file = guard::salvage_skeleton_file(path, file_report);
  ASSERT_TRUE(from_file.has_value());
  EXPECT_FALSE(file_report.clean);
  EXPECT_EQ(file_report.ranks_kept, 1u);
  EXPECT_EQ(file_report.byte_offset, report.byte_offset);
}

TEST(Salvage, TornSkeletonDropsWholeRanks) {
  // Wherever the tear falls inside the second rank, salvage keeps exactly
  // the first: a rank's loop forest is useless half-read.  A tear in the
  // checksum trailer alone keeps both.
  ScratchDir dir("salvage_torn");
  const std::string path = dir.file("k.skel");
  const std::string bytes = archived(two_rank_skeleton());
  const std::size_t payload_end = bytes.size() - 8;
  guard::SalvageReport probe;
  ASSERT_TRUE(guard::salvage_skeleton_bytes(bytes.substr(0, payload_end - 1),
                                            probe)
                  .has_value());
  const std::size_t second_rank = probe.byte_offset;
  for (std::size_t cut = second_rank + 1; cut < payload_end; ++cut) {
    write_file(path, bytes.substr(0, cut));
    guard::SalvageReport report;
    const auto salvaged = guard::salvage_skeleton_file(path, report);
    ASSERT_TRUE(salvaged.has_value()) << cut;
    EXPECT_FALSE(report.clean) << cut;
    EXPECT_EQ(report.ranks_expected, 2u) << cut;
    EXPECT_EQ(report.ranks_kept, 1u) << cut;
    EXPECT_EQ(report.byte_offset, second_rank) << cut;
    EXPECT_EQ(salvaged->rank_count(), 1) << cut;
  }
  write_file(path, bytes.substr(0, payload_end + 3));
  guard::SalvageReport report;
  const auto salvaged = guard::salvage_skeleton_file(path, report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.ranks_kept, 2u);
  EXPECT_NE(report.render().find("salvaged 2 of 2 rank(s); damage starts at "
                                 "byte " +
                                 std::to_string(payload_end)),
            std::string::npos)
      << report.render();
}

TEST(Salvage, RanksLineTornBeforeCountIsRejected) {
  // A container torn before or inside the skeleton's rank count field has
  // no rank to keep; salvage diagnoses it instead of reading past the end.
  const std::string bytes = archived_header_only(1);
  const std::size_t count_at = bytes.size() - 8 - 4;
  for (const std::size_t cut : {count_at, count_at + 2}) {
    guard::SalvageReport report;
    EXPECT_FALSE(
        guard::salvage_skeleton_bytes(bytes.substr(0, cut), report)
            .has_value())
        << cut;
    EXPECT_FALSE(report.recovered) << cut;
    EXPECT_EQ(report.ranks_expected, 0u) << cut;
    EXPECT_NE(report.detail.find("truncated"), std::string::npos)
        << cut << ": " << report.render();
  }
}

TEST(Salvage, ImplausibleRanksCountIsRejected) {
  // A rank count above the codec's cap is refused instead of reported as an
  // absurd expectation; a plausible count with no ranks behind it keeps
  // nothing.
  for (const std::uint32_t count : {65537u, 0xFFFFFFFFu}) {
    guard::SalvageReport report;
    EXPECT_FALSE(
        guard::salvage_skeleton_bytes(archived_header_only(count), report)
            .has_value())
        << count;
    EXPECT_NE(report.detail.find("implausible rank count"), std::string::npos)
        << count << ": " << report.render();
    EXPECT_EQ(report.ranks_expected, 0u) << count;
  }
  guard::SalvageReport report;
  EXPECT_FALSE(
      guard::salvage_skeleton_bytes(archived_header_only(60000), report)
          .has_value());
  EXPECT_EQ(report.ranks_expected, 60000u);
  EXPECT_EQ(report.ranks_kept, 0u);
}

TEST(Salvage, BytesEntryPointRecoversTornSkeleton) {
  // The in-memory entry point has no strict path: even an intact buffer is
  // reported recovered, never clean.
  guard::SalvageReport report;
  const auto salvaged =
      guard::salvage_skeleton_bytes(archived(two_rank_skeleton()), report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_TRUE(report.recovered);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.path, "<memory>");
  EXPECT_EQ(report.ranks_kept, 2u);
  EXPECT_TRUE(report.detail.empty()) << report.render();
  EXPECT_EQ(salvaged->rank_count(), 2);
}

TEST(Salvage, HopelessFileReturnsNullopt) {
  guard::SalvageReport report;
  EXPECT_FALSE(
      guard::salvage_skeleton_bytes("not even close\n", report).has_value());
  EXPECT_FALSE(report.recovered);
  EXPECT_FALSE(report.detail.empty());
  // A PSKARCH1 header torn before its end, and a whole archive of another
  // kind: nothing to keep, and the report says why.
  std::string empty_frame;
  archive::write_frame(empty_frame, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, "");
  EXPECT_FALSE(guard::salvage_skeleton_bytes(empty_frame.substr(0, 20), report)
                   .has_value());
  EXPECT_FALSE(report.recovered);
  EXPECT_NE(report.detail.find("truncated"), std::string::npos)
      << report.render();
  std::string trace_bytes;
  std::string payload;
  archive::encode(payload, matched_pair_trace());
  archive::write_frame(trace_bytes, archive::PayloadKind::kTrace,
                       archive::kTraceVersion, payload);
  EXPECT_FALSE(
      guard::salvage_skeleton_bytes(trace_bytes, report).has_value());
  EXPECT_FALSE(report.recovered);
  EXPECT_NE(report.detail.find("holds a trace, not a skeleton"),
            std::string::npos)
      << report.render();
}

TEST(Salvage, MissingFileStillThrows) {
  guard::SalvageReport report;
  EXPECT_THROW(guard::salvage_skeleton_file("/nonexistent/x.skel", report),
               Error);
}

// ---------------------------------------------------- cache disk failures

TEST(CacheGuard, DiskWriteFailureDegradesToMemoryOnly) {
  ScratchDir dir("cache_fail");
  cache::CacheOptions options;
  options.disk_dir = dir.file("cache");
  cache::ResultCache cache(options);
  const auto path_of = [&](const cache::CacheKey& key) {
    return options.disk_dir + "/" + archive::fingerprint_hex(key.hash) +
           ".pskb";
  };
  // Make a key's temp-file path un-creatable even for root: a directory
  // already occupies it, so ofstream(tmp, trunc) must fail.
  const auto block = [&](const cache::CacheKey& key) {
    fs::create_directories(path_of(key) + ".tmp");
  };
  const cache::CacheKey key = cache::sweep_cell_key("guard-test/1", "cell");
  block(key);
  cache.store(key, "payload");
  EXPECT_EQ(cache.stats().disk_write_failures, 1u);
  EXPECT_FALSE(fs::exists(path_of(key)));
  // The value still lives in the memory tier.
  EXPECT_EQ(cache.lookup(key).value_or(""), "payload");
  // The failure is per entry: the next store tries the disk again.
  const cache::CacheKey other = cache::sweep_cell_key("guard-test/1", "o");
  cache.store(other, "other");
  EXPECT_EQ(cache.stats().disk_write_failures, 1u);
  EXPECT_TRUE(fs::exists(path_of(other)));
  // Every failure is counted.
  const cache::CacheKey third = cache::sweep_cell_key("guard-test/1", "t");
  block(third);
  cache.store(third, "third");
  EXPECT_EQ(cache.stats().disk_write_failures, 2u);
  EXPECT_EQ(cache.lookup(third).value_or(""), "third");
}

TEST(CacheGuard, DiskWriteFailureCounterInObsDump) {
  cache::CacheStats stats;
  stats.disk_write_failures = 1;
  EXPECT_NE(cache::stats_kv(stats).find("cache.disk_write_fail=1"),
            std::string::npos);
}

// ------------------------------------------------------ journal replay

TEST(JournalGuard, ReplayStatsClassifyDamage) {
  ScratchDir dir("journal");
  const std::string path = dir.file("sweep.journal");
  const std::vector<std::string> keys{"k0", "k1", "k2"};
  runner::JournaledSweepOptions options;
  options.jobs = 1;
  options.journal_path = path;
  options.domain = "guard-test/journal/1";
  int runs = 0;
  // Fresh run: journal every cell.
  runner::journaled_sweep(
      keys, [&](std::size_t i) { ++runs; return "v" + std::to_string(i); },
      options);
  EXPECT_EQ(runs, 3);
  // Damage the journal: keep k0's line, add garbage, a foreign-grid line,
  // and tear the final line mid-append (no trailing newline).
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_EQ(lines.size(), 3u);
  const std::string foreign =
      archive::fingerprint_hex(0x1234) + "\tother-key\tok\tvalue";
  write_file(path, lines[0] + "\nnot a journal line\n" + foreign + "\n" +
                       lines[2].substr(0, lines[2].size() / 2));
  runs = 0;
  options.resume = true;
  runner::JournalReplayStats stats;
  options.replay_stats = &stats;
  const std::vector<runner::CellResult> results = runner::journaled_sweep(
      keys, [&](std::size_t i) { ++runs; return "v" + std::to_string(i); },
      options);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.dropped_unparsable, 1u);
  EXPECT_EQ(stats.dropped_unknown, 1u);
  EXPECT_EQ(stats.torn_tail, 1u);
  EXPECT_EQ(stats.dropped(), 3u);
  EXPECT_EQ(runs, 2);  // k1 and k2 re-ran; k0 replayed
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(results[i].payload, "v" + std::to_string(i));
  }
  const std::string rendered = stats.render();
  EXPECT_NE(rendered.find("replayed 1"), std::string::npos);
  EXPECT_NE(rendered.find("1 torn tail"), std::string::npos);
  obs::MetricsRegistry metrics;
  stats.publish(metrics);
  EXPECT_EQ(metrics.counter("journal.replayed").value(), 1.0);
  EXPECT_EQ(metrics.counter("journal.dropped").value(), 3.0);
  EXPECT_EQ(metrics.counter("journal.torn").value(), 1.0);
}

}  // namespace
}  // namespace psk
