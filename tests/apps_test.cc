// Tests for the NAS-like benchmark suite.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/nas.h"
#include "mpi/world.h"
#include "sim/machine.h"
#include "trace/event.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace psk::apps {

// Prints a suite parameter as its benchmark name. Without this gtest prints
// the pointer, so the names --gtest_list_tests reports (and the ctest names
// discovered from them) change with the binary's load address.
static void PrintTo(const BenchmarkDef* def, std::ostream* os) {
  *os << def->name;
}

namespace {

trace::Trace run_class(const BenchmarkDef& def, NasClass cls,
                       std::uint64_t seed = 1) {
  sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed();
  cluster.seed = seed;
  sim::Machine machine(cluster);
  mpi::World world(machine, 4);
  return trace::record_run(world, def.make(cls), def.name);
}

// ------------------------------------------------------------------ registry

TEST(Registry, SuiteHasPaperOrder) {
  const auto all = suite();
  ASSERT_EQ(all.size(), 6u);
  const std::vector<std::string> expected = {"BT", "CG", "IS",
                                             "LU", "MG", "SP"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
  }
}

TEST(Registry, FindBenchmark) {
  EXPECT_EQ(std::string(find_benchmark("LU").name), "LU");
  EXPECT_THROW(find_benchmark("XX"), psk::ConfigError);
}

TEST(Registry, ExtendedSuiteAddsEpAndFt) {
  const auto extended = extended_suite();
  ASSERT_EQ(extended.size(), 8u);
  EXPECT_EQ(std::string(extended[6].name), "EP");
  EXPECT_EQ(std::string(extended[7].name), "FT");
  EXPECT_EQ(std::string(find_benchmark("EP").name), "EP");
  EXPECT_EQ(std::string(find_benchmark("FT").name), "FT");
}

TEST(ExtendedSuite, EpAndFtRunAcrossClasses) {
  for (const char* name : {"EP", "FT"}) {
    const double s = run_class(find_benchmark(name), NasClass::kS).elapsed();
    const double b = run_class(find_benchmark(name), NasClass::kB).elapsed();
    EXPECT_GT(s, 0.0) << name;
    EXPECT_LT(s, b) << name;
  }
}

TEST(ExtendedSuite, EpIsComputeBoundFtIsCommBound) {
  const trace::ActivityBreakdown ep =
      trace::activity_breakdown(run_class(find_benchmark("EP"), NasClass::kB));
  const trace::ActivityBreakdown ft =
      trace::activity_breakdown(run_class(find_benchmark("FT"), NasClass::kB));
  EXPECT_LT(ep.mpi_fraction, 0.03);
  EXPECT_GT(ft.mpi_fraction, 0.25);
  EXPECT_GT(ft.mpi_fraction, ep.mpi_fraction * 5);
}

TEST(Registry, ClassNamesRoundTrip) {
  for (auto cls : {NasClass::kS, NasClass::kW, NasClass::kA, NasClass::kB}) {
    EXPECT_EQ(class_from_name(class_name(cls)), cls);
  }
  EXPECT_THROW(class_from_name("Z"), psk::ConfigError);
}

// -------------------------------------------------------------------- Grid2D

TEST(Grid, FourRanksIsTwoByTwo) {
  const Grid2D grid(4);
  EXPECT_EQ(grid.rows(), 2);
  EXPECT_EQ(grid.cols(), 2);
  EXPECT_EQ(grid.row_of(3), 1);
  EXPECT_EQ(grid.col_of(3), 1);
  EXPECT_EQ(grid.at(1, 1), 3);
}

TEST(Grid, TorusNeighborsWrap) {
  const Grid2D grid(4);
  EXPECT_EQ(grid.east(0), 1);
  EXPECT_EQ(grid.west(0), 1);  // wraps on a 2-wide grid
  EXPECT_EQ(grid.south(0), 2);
  EXPECT_EQ(grid.north(0), 2);
}

TEST(Grid, OpenNeighborsRespectEdges) {
  const Grid2D grid(4);
  EXPECT_EQ(grid.north_open(0), -1);
  EXPECT_EQ(grid.west_open(0), -1);
  EXPECT_EQ(grid.south_open(0), 2);
  EXPECT_EQ(grid.east_open(0), 1);
  EXPECT_EQ(grid.south_open(3), -1);
  EXPECT_EQ(grid.east_open(3), -1);
  EXPECT_EQ(grid.north_open(3), 1);
  EXPECT_EQ(grid.west_open(3), 2);
}

TEST(Grid, TransposePartners) {
  const Grid2D grid(4);
  EXPECT_EQ(grid.transpose(0), 0);
  EXPECT_EQ(grid.transpose(1), 2);
  EXPECT_EQ(grid.transpose(2), 1);
  EXPECT_EQ(grid.transpose(3), 3);
}

TEST(Grid, NonSquareFactorization) {
  const Grid2D grid(8);
  EXPECT_EQ(grid.rows() * grid.cols(), 8);
  EXPECT_LE(grid.rows(), grid.cols());
  EXPECT_THROW(grid.transpose(0), psk::ConfigError);
}

TEST(Grid, Vary) {
  for (int i = 0; i < 100; ++i) {
    const double v = vary(i, 0.1, 0.7);
    EXPECT_GE(v, 0.9);
    EXPECT_LE(v, 1.1);
  }
  EXPECT_DOUBLE_EQ(vary(7, 0.1, 0.7), vary(7, 0.1, 0.7));
}

// ------------------------------------------------------------ per-benchmark

class EveryBenchmark : public ::testing::TestWithParam<const BenchmarkDef*> {};

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmark,
    ::testing::Values(&extended_suite()[0], &extended_suite()[1],
                      &extended_suite()[2], &extended_suite()[3],
                      &extended_suite()[4], &extended_suite()[5],
                      &extended_suite()[6], &extended_suite()[7]),
    [](const ::testing::TestParamInfo<const BenchmarkDef*>& info) {
      return std::string(info.param->name);
    });

TEST_P(EveryBenchmark, ClassSRunsToCompletion) {
  const trace::Trace trace = run_class(*GetParam(), NasClass::kS);
  EXPECT_GT(trace.elapsed(), 0.0);
  EXPECT_LT(trace.elapsed(), 2.0);  // class S is sub-second scale
  EXPECT_EQ(trace.rank_count(), 4);
  for (const auto& rank : trace.ranks) {
    // EP is nearly communication-free: 5 calls; everything else has dozens.
    EXPECT_GE(rank.events.size(), 5u);
  }
}

TEST_P(EveryBenchmark, DeterministicAcrossRuns) {
  const trace::Trace a = run_class(*GetParam(), NasClass::kS, 42);
  const trace::Trace b = run_class(*GetParam(), NasClass::kS, 42);
  EXPECT_DOUBLE_EQ(a.elapsed(), b.elapsed());
  EXPECT_EQ(a.event_count(), b.event_count());
}

TEST_P(EveryBenchmark, ActivityFractionsSane) {
  const trace::Trace trace = run_class(*GetParam(), NasClass::kS);
  const trace::ActivityBreakdown b = trace::activity_breakdown(trace);
  EXPECT_GT(b.mpi_fraction, 0.0);
  EXPECT_LT(b.mpi_fraction, 0.95);
  EXPECT_GT(b.compute_fraction, 0.0);
  EXPECT_NEAR(b.mpi_fraction + b.compute_fraction, 1.0, 0.05);
}

TEST_P(EveryBenchmark, TraceFoldsCompletely) {
  trace::Trace trace = run_class(*GetParam(), NasClass::kS);
  trace::fold_nonblocking(trace);
  EXPECT_TRUE(trace::is_fully_folded(trace));
}

TEST_P(EveryBenchmark, SymmetricEventCounts) {
  // SPMD codes on a symmetric 2x2 grid: all ranks make the same number of
  // calls (LU corner ranks differ in neighbour count but not call count,
  // because every rank has exactly two open neighbours on a 2x2 grid).
  const trace::Trace trace = run_class(*GetParam(), NasClass::kS);
  std::set<std::size_t> counts;
  for (const auto& rank : trace.ranks) counts.insert(rank.events.size());
  EXPECT_EQ(counts.size(), 1u) << "ranks disagree on event count";
}

TEST(ClassScaling, LargerClassesRunLonger) {
  for (const BenchmarkDef& def : suite()) {
    const double s = run_class(def, NasClass::kS).elapsed();
    const double w = run_class(def, NasClass::kW).elapsed();
    const double b = run_class(def, NasClass::kB).elapsed();
    EXPECT_LT(s, w) << def.name;
    EXPECT_LT(w, b) << def.name;
  }
}

TEST(ClassScaling, ClassBInPaperRange) {
  // The paper: class B codes run 30..900 s without load on 4 machines.
  for (const BenchmarkDef& def : suite()) {
    const double elapsed = run_class(def, NasClass::kB).elapsed();
    EXPECT_GE(elapsed, 25.0) << def.name;
    EXPECT_LE(elapsed, 900.0) << def.name;
  }
}

TEST(Sharing, EveryBenchmarkSlowsUnderNodeLoad) {
  for (const BenchmarkDef& def : suite()) {
    sim::Machine dedicated(sim::ClusterConfig::paper_testbed());
    mpi::World world_a(dedicated, 4);
    world_a.launch(def.make(NasClass::kS));
    const double base = world_a.run();

    sim::Machine loaded(sim::ClusterConfig::paper_testbed());
    loaded.node(0).add_load(2);
    mpi::World world_b(loaded, 4);
    world_b.launch(def.make(NasClass::kS));
    const double shared = world_b.run();

    EXPECT_GT(shared, base) << def.name;
    EXPECT_LT(shared, base * 1.6) << def.name;  // bounded by compute share
  }
}

TEST_P(EveryBenchmark, SixteenRanksOversubscribedRuns) {
  // 16 ranks on the 4-node testbed: 4 ranks per dual-core node, heavy use
  // of the intra-node channel and CPU time slicing.  BT/SP/CG need the
  // square grid (4x4 works), LU/MG the 2D factorization.
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 16);
  world.launch(GetParam()->make(NasClass::kS));
  double elapsed = -1;
  ASSERT_NO_THROW({ elapsed = world.run(); });
  EXPECT_GT(elapsed, 0.0);
}

TEST(Sharing, CommHeavyCodesSufferMoreFromShapedLinks) {
  // Class B is where the balance matters (class S codes are all
  // latency-dominated and slow down uniformly).
  const auto slowdown = [](const BenchmarkDef& def) {
    sim::Machine dedicated(sim::ClusterConfig::paper_testbed());
    mpi::World world_a(dedicated, 4);
    world_a.launch(def.make(NasClass::kB));
    const double base = world_a.run();

    sim::Machine shaped(sim::ClusterConfig::paper_testbed());
    for (int n = 0; n < 4; ++n) {
      shaped.network().set_link_bandwidth(n, 1.25e6);  // 10 Mbps everywhere
    }
    mpi::World world_b(shaped, 4);
    world_b.launch(def.make(NasClass::kB));
    return world_b.run() / base;
  };
  // IS (alltoallv-dominated, ~40% MPI) must suffer far more than the most
  // compute-bound code, BT (~8% MPI).
  EXPECT_GT(slowdown(find_benchmark("IS")), slowdown(find_benchmark("BT")));
}

}  // namespace
}  // namespace psk::apps
