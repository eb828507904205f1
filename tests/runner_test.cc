// Tests for the psk::runner subsystem: the FIFO pool, the sweep executor,
// and the headline guarantees of the memoized experiment driver on top of
// them -- a parallel grid is element-wise identical to the serial one, and
// computes each shared value exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <fstream>

#include "apps/nas.h"
#include "cache/cache.h"
#include "core/experiment.h"
#include "runner/journal.h"
#include "runner/pool.h"
#include "runner/sweep.h"
#include "scenario/scenario.h"
#include "util/error.h"

namespace psk::runner {
namespace {

// ------------------------------------------------------------------- pool

TEST(ThreadPool, ResolveJobsDefaultsToHardware) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, IsReusableAcrossGenerations) {
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPool, SingleJobRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.parallel_for(32, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  // A serial loop would fail at index 3 first; the pool must report the
  // same failure no matter which throwing body ran first.
  ThreadPool pool(4);
  for (int round = 0; round < 16; ++round) {
    try {
      pool.parallel_for(256, [](std::size_t i) {
        if (i == 3 || i == 200) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected parallel_for to throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom at 3");
    }
  }
}

TEST(ThreadPool, UsableAfterFailure) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ClaimsIndicesInAscendingOrder) {
  // One shared claim counter: every thread sees its indices in ascending
  // order, which is what makes a deepest-dependency-first list a schedule.
  ThreadPool pool(4);
  std::mutex mutex;
  std::map<std::thread::id, std::vector<std::size_t>> claimed;
  pool.parallel_for(1000, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    claimed[std::this_thread::get_id()].push_back(i);
  });
  std::size_t total = 0;
  for (const auto& [thread, indices] : claimed) {
    total += indices.size();
    for (std::size_t k = 1; k < indices.size(); ++k) {
      ASSERT_LT(indices[k - 1], indices[k]);
    }
  }
  EXPECT_EQ(total, 1000u);
}

// ------------------------------------------------------------------ sweep

TEST(Sweep, MapPreservesInputOrder) {
  // Bodies writing slot i of a preallocated vector see results in input
  // order, however the pool schedules them.
  std::vector<int> doubled(500);
  SweepOptions options;
  options.jobs = 4;
  sweep(
      doubled.size(),
      [&](std::size_t i) { doubled[i] = 2 * static_cast<int>(i); },
      options);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(doubled[i], 2 * i);
}

TEST(Sweep, EmptyAndSingleCounts) {
  int calls = 0;
  sweep(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  sweep(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

// -------------------------------------------------------- journaled sweep

std::vector<std::string> demo_keys() {
  // Keys deliberately include the journal's own separators to exercise the
  // escaping round-trip.
  return {"plain", "with\ttab", "with\nnewline", "back\\slash", "e", "f"};
}

std::string demo_body(std::size_t i) {
  return "payload\t#" + std::to_string(i) + "\nline2";
}

TEST(JournaledSweep, BodyExceptionFailsOnlyThatCellAndPoolStaysUsable) {
  const std::vector<std::string> keys = demo_keys();
  JournaledSweepOptions options;
  options.jobs = 4;
  const std::vector<CellResult> results = journaled_sweep(
      keys,
      [](std::size_t i) -> std::string {
        if (i == 2) throw std::runtime_error("boom at 2");
        return demo_body(i);
      },
      options);
  ASSERT_EQ(results.size(), keys.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(results[i].status, CellResult::Status::kFailed);
      EXPECT_NE(results[i].detail.find("boom at 2"), std::string::npos);
    } else {
      EXPECT_EQ(results[i].status, CellResult::Status::kOk) << "cell " << i;
      EXPECT_EQ(results[i].payload, demo_body(i));
    }
  }
  // A failed cell must not poison later sweeps.
  const std::vector<CellResult> clean =
      journaled_sweep(keys, demo_body, options);
  for (const CellResult& result : clean) {
    EXPECT_EQ(result.status, CellResult::Status::kOk);
  }
}

TEST(JournaledSweep, TimeoutErrorBecomesTimeoutCell) {
  const std::vector<std::string> keys = {"a", "b"};
  const std::vector<CellResult> results = journaled_sweep(
      keys, [](std::size_t i) -> std::string {
        if (i == 1) throw psk::TimeoutError("sim exceeded deadline");
        return "ok";
      });
  EXPECT_EQ(results[0].status, CellResult::Status::kOk);
  EXPECT_EQ(results[1].status, CellResult::Status::kTimeout);
  EXPECT_NE(results[1].detail.find("deadline"), std::string::npos);
}

TEST(JournaledSweep, DuplicateKeysThrow) {
  const std::vector<std::string> keys = {"same", "same"};
  EXPECT_THROW(journaled_sweep(keys, demo_body), psk::ConfigError);
}

TEST(JournaledSweep, ParallelMatchesSerial) {
  const std::vector<std::string> keys = demo_keys();
  JournaledSweepOptions serial;
  serial.jobs = 1;
  JournaledSweepOptions parallel;
  parallel.jobs = 4;
  EXPECT_EQ(journaled_sweep(keys, demo_body, serial),
            journaled_sweep(keys, demo_body, parallel));
}

TEST(JournaledSweep, ResumeAfterTruncationMatchesFreshRun) {
  const std::vector<std::string> keys = demo_keys();
  const std::string fresh_path = testing::TempDir() + "psk_fresh.journal";
  const std::string partial_path = testing::TempDir() + "psk_partial.journal";

  JournaledSweepOptions fresh;
  fresh.jobs = 2;
  fresh.journal_path = fresh_path;
  const std::vector<CellResult> expect =
      journaled_sweep(keys, demo_body, fresh);

  // Simulate a crash mid-sweep: keep the first three complete journal lines
  // and append a torn final write (no trailing newline).  Replay must trust
  // the complete lines, discard the fragment, and re-run only the rest.
  std::ifstream in(fresh_path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::string kept;
  std::string line;
  for (int i = 0; i < 3 && std::getline(in, line); ++i) kept += line + "\n";
  in.close();
  std::ofstream out(partial_path, std::ios::binary | std::ios::trunc);
  out << kept << "torn-cell\tok\thalf-writ";  // no newline: torn write
  out.close();

  std::atomic<int> reran{0};
  JournaledSweepOptions resume;
  resume.jobs = 2;
  resume.journal_path = partial_path;
  resume.resume = true;
  const std::vector<CellResult> got = journaled_sweep(
      keys,
      [&](std::size_t i) {
        reran.fetch_add(1);
        return demo_body(i);
      },
      resume);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(got[i].status, expect[i].status);
    EXPECT_EQ(got[i].payload, expect[i].payload);  // byte-identical
  }
  EXPECT_EQ(reran.load(), 3);  // exactly the cells the journal was missing
  std::remove(fresh_path.c_str());
  std::remove(partial_path.c_str());
}

TEST(JournaledSweep, JournaledFailureIsNotRetriedOnResume) {
  const std::vector<std::string> keys = {"good", "bad"};
  const std::string path = testing::TempDir() + "psk_failure.journal";
  JournaledSweepOptions first;
  first.journal_path = path;
  const std::vector<CellResult> broken = journaled_sweep(
      keys, [](std::size_t i) -> std::string {
        if (i == 1) throw std::runtime_error("deterministic failure");
        return "fine";
      },
      first);
  EXPECT_EQ(broken[1].status, CellResult::Status::kFailed);

  int calls = 0;
  JournaledSweepOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  const std::vector<CellResult> replayed = journaled_sweep(
      keys,
      [&](std::size_t) -> std::string {
        ++calls;
        return "would now succeed";
      },
      resume);
  EXPECT_EQ(calls, 0);  // both cells came from the journal
  EXPECT_EQ(replayed, broken);
  std::remove(path.c_str());
}

TEST(JournaledSweep, SharedCacheSkipsBodiesAcrossJournals) {
  // Two independent sweeps (no journals at all) sharing one result cache:
  // the second run serves every cell from the cache without calling a body.
  const std::vector<std::string> keys = demo_keys();
  cache::ResultCache shared;
  JournaledSweepOptions options;
  options.jobs = 2;
  options.domain = "runner-test/cache/1";
  options.cache = &shared;

  std::atomic<int> first_calls{0};
  const std::vector<CellResult> first = journaled_sweep(
      keys,
      [&](std::size_t i) {
        first_calls.fetch_add(1);
        return demo_body(i);
      },
      options);
  EXPECT_EQ(first_calls.load(), static_cast<int>(keys.size()));

  std::atomic<int> second_calls{0};
  const std::vector<CellResult> second = journaled_sweep(
      keys,
      [&](std::size_t i) {
        second_calls.fetch_add(1);
        return demo_body(i);
      },
      options);
  EXPECT_EQ(second_calls.load(), 0);
  EXPECT_EQ(second, first);

  // A different domain must NOT reuse those entries: same keys, different
  // sweep semantics (e.g. a changed fault scenario) recompute from scratch.
  std::atomic<int> other_calls{0};
  JournaledSweepOptions other = options;
  other.domain = "runner-test/cache/2";
  journaled_sweep(
      keys,
      [&](std::size_t i) {
        other_calls.fetch_add(1);
        return demo_body(i);
      },
      other);
  EXPECT_EQ(other_calls.load(), static_cast<int>(keys.size()));
}

TEST(JournaledSweep, LegacyThreeFieldLineIsUnparsable) {
  // A line from before the hash column (key TAB status TAB payload) is not
  // a record: replay drops it as unparsable and its cell runs again.
  const std::string path = testing::TempDir() + "psk_legacy.journal";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "k1\tok\tpayload-one\n";
  }
  std::atomic<int> calls{0};  // bodies run on pool workers
  JournalReplayStats stats;
  JournaledSweepOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  resume.replay_stats = &stats;
  const std::vector<CellResult> results = journaled_sweep(
      {"k1", "k2"},
      [&](std::size_t i) {
        calls.fetch_add(1);
        return "computed-" + std::to_string(i);
      },
      resume);
  EXPECT_EQ(calls.load(), 2);  // k1 ran again
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(stats.dropped_unparsable, 1u);
  EXPECT_EQ(results[0].payload, "computed-0");
  EXPECT_EQ(results[1].payload, "computed-1");
  std::remove(path.c_str());
}

TEST(JournaledSweep, ResumeMatchesCellsByKeyNotLinePosition) {
  // Resume is keyed by cell hash, not journal line order: a journal written
  // in one order replays correctly into a sweep that enumerates the same
  // cells in a different order.
  const std::vector<std::string> keys = demo_keys();
  std::vector<std::string> reversed(keys.rbegin(), keys.rend());
  const std::string path = testing::TempDir() + "psk_reorder.journal";

  JournaledSweepOptions fresh;
  fresh.journal_path = path;
  fresh.domain = "runner-test/reorder";
  journaled_sweep(keys, demo_body, fresh);

  std::atomic<int> reran{0};
  JournaledSweepOptions resume = fresh;
  resume.resume = true;
  const std::vector<CellResult> got = journaled_sweep(
      reversed,
      [&](std::size_t i) {
        reran.fetch_add(1);
        return demo_body(i);
      },
      resume);
  EXPECT_EQ(reran.load(), 0);
  ASSERT_EQ(got.size(), keys.size());
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    // reversed[i] is keys[n-1-i]; its payload was journaled as
    // demo_body(n-1-i).
    EXPECT_EQ(got[i].payload, demo_body(keys.size() - 1 - i))
        << "cell " << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------- determinism (acceptance)

core::ExperimentConfig grid_config(int jobs) {
  core::ExperimentConfig config;
  config.benchmarks = {"MG", "IS"};
  config.app_class = apps::NasClass::kS;
  config.skeleton_sizes = {0.1, 0.05};
  config.jobs = jobs;
  return config;
}

TEST(Sweep, ParallelGridIsBitIdenticalToSerial) {
  // The ISSUE acceptance test: run_grid() with jobs=4 must be element-wise
  // bit-identical to jobs=1.  Fresh drivers per run so no caches leak.
  core::ExperimentDriver serial(grid_config(1));
  const std::vector<core::PredictionRecord> expect = serial.run_grid();

  core::ExperimentDriver parallel(grid_config(4));
  const std::vector<core::PredictionRecord> got = parallel.run_grid();

  ASSERT_EQ(got.size(), expect.size());
  ASSERT_FALSE(expect.empty());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].app, expect[i].app);
    EXPECT_EQ(got[i].target_size, expect[i].target_size);
    EXPECT_EQ(got[i].scenario, expect[i].scenario);
    EXPECT_EQ(got[i].scaling_factor, expect[i].scaling_factor);
    EXPECT_EQ(got[i].app_dedicated, expect[i].app_dedicated);
    EXPECT_EQ(got[i].skeleton_dedicated, expect[i].skeleton_dedicated);
    EXPECT_EQ(got[i].skeleton_scenario, expect[i].skeleton_scenario);
    EXPECT_EQ(got[i].app_scenario, expect[i].app_scenario);
    EXPECT_EQ(got[i].predicted, expect[i].predicted);
    EXPECT_EQ(got[i].error_percent, expect[i].error_percent);
    EXPECT_EQ(got[i].good, expect[i].good);
    EXPECT_EQ(got[i].min_good_time, expect[i].min_good_time);
  }
}

TEST(Sweep, EachValueIsComputedOnceAtAnyJobs) {
  // Fresh drivers with their own result caches: every distinct simulation
  // run misses the cache exactly once and every distinct (app, size)
  // skeleton is scaled exactly once, whether the memos are filled by one
  // thread or raced by four.
  struct Counts {
    std::uint64_t misses;
    std::uint64_t scaled;
  };
  auto run = [](int jobs) {
    core::ExperimentConfig config = grid_config(jobs);
    config.framework.result_cache = std::make_shared<cache::ResultCache>();
    core::ExperimentDriver driver(config);
    driver.run_grid();
    const auto phases = driver.phases().snapshot();
    const auto scale = phases.find("scale");
    return Counts{config.framework.result_cache->stats().misses,
                  scale == phases.end() ? 0 : scale->second.calls};
  };
  const core::ExperimentConfig config = grid_config(1);
  std::set<std::tuple<std::string, std::string, int>> app_runs;
  std::set<std::tuple<std::string, double, std::string, int>> skeleton_runs;
  for (const std::string& app : config.benchmarks) {
    for (double size : config.skeleton_sizes) {
      skeleton_runs.emplace(app, size, scenario::dedicated().name, 0);
      for (const scenario::Scenario& s : scenario::paper_scenarios()) {
        for (int repetition = 0; repetition < config.repetitions;
             ++repetition) {
          app_runs.emplace(app, s.name, repetition);
          skeleton_runs.emplace(app, size, s.name, repetition);
        }
      }
    }
  }
  const std::uint64_t distinct_runs = app_runs.size() + skeleton_runs.size();
  const std::uint64_t distinct_skeletons =
      config.benchmarks.size() * config.skeleton_sizes.size();

  const Counts serial = run(1);
  const Counts parallel = run(4);
  EXPECT_EQ(serial.misses, distinct_runs);
  EXPECT_EQ(parallel.misses, distinct_runs);
  EXPECT_EQ(serial.scaled, distinct_skeletons);
  EXPECT_EQ(parallel.scaled, distinct_skeletons);
}

TEST(Sweep, FailedValueIsRetriedNotCached) {
  // An unknown benchmark fails its trace.  The failure must surface as the
  // same ConfigError at any jobs setting, without hanging the workers that
  // waited on it, and must not be memoized: a second call fails again, and
  // the driver stays usable for valid cells.
  const scenario::Scenario& scenario = scenario::paper_scenarios()[0];
  const std::vector<core::GridCell> bad = {{"MG", 0.1, &scenario},
                                           {"NOPE", 0.1, &scenario},
                                           {"NOPE", 0.05, &scenario}};
  auto failure = [&](core::ExperimentDriver& driver) -> std::string {
    try {
      driver.predict_cells(bad);
    } catch (const ConfigError& error) {
      return error.what();
    }
    return "no ConfigError";
  };
  core::ExperimentDriver serial(grid_config(1));
  const std::string expect = failure(serial);
  EXPECT_NE(expect.find("NOPE"), std::string::npos) << expect;

  core::ExperimentDriver parallel(grid_config(4));
  EXPECT_EQ(failure(parallel), expect);
  EXPECT_EQ(failure(parallel), expect);

  const std::vector<core::PredictionRecord> expect_records =
      serial.predict_cells({bad[0]});
  const std::vector<core::PredictionRecord> got =
      parallel.predict_cells({bad[0]});
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(expect_records.size(), 1u);
  EXPECT_EQ(got[0].error_percent, expect_records[0].error_percent);
  EXPECT_EQ(parallel.run_grid().size(), parallel.grid_cells().size());
}

TEST(Sweep, GridCellOrderMatchesSerialNesting) {
  // grid_cells() must enumerate app x size x scenario in the same order the
  // serial loops always did, since records are keyed by position.
  core::ExperimentDriver driver(grid_config(1));
  const auto cells = driver.grid_cells();
  ASSERT_FALSE(cells.empty());
  std::size_t index = 0;
  for (const std::string& app : driver.config().benchmarks) {
    for (double size : driver.config().skeleton_sizes) {
      for (const auto& scenario : scenario::paper_scenarios()) {
        ASSERT_LT(index, cells.size());
        EXPECT_EQ(cells[index].app, app);
        EXPECT_EQ(cells[index].size_seconds, size);
        EXPECT_EQ(cells[index].scenario, &scenario);
        ++index;
      }
    }
  }
  EXPECT_EQ(index, cells.size());
}

TEST(Sweep, FaultGridIsBitIdenticalAcrossJobs) {
  // Same acceptance bar as the sharing grid, but over the fault scenarios:
  // crash/flap/checkpoint daemons draw from the per-run seeded RNG, so the
  // parallel fan-out must reproduce the serial run exactly.
  auto run = [](int jobs) {
    core::ExperimentConfig config;
    config.benchmarks = {"MG"};
    config.app_class = apps::NasClass::kS;
    config.skeleton_sizes = {0.1};
    config.jobs = jobs;
    core::ExperimentDriver driver(config);
    std::vector<core::GridCell> cells;
    for (const scenario::Scenario& s : scenario::fault_scenarios()) {
      cells.push_back({"MG", 0.1, &s});
    }
    return driver.predict_cells(cells);
  };
  const std::vector<core::PredictionRecord> expect = run(1);
  const std::vector<core::PredictionRecord> got = run(4);
  ASSERT_EQ(got.size(), expect.size());
  ASSERT_FALSE(expect.empty());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].scenario, expect[i].scenario);
    EXPECT_EQ(got[i].app_scenario, expect[i].app_scenario);
    EXPECT_EQ(got[i].skeleton_scenario, expect[i].skeleton_scenario);
    EXPECT_EQ(got[i].predicted, expect[i].predicted);
    EXPECT_EQ(got[i].error_percent, expect[i].error_percent);
  }
}

}  // namespace
}  // namespace psk::runner
