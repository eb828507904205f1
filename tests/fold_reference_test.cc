// Reference-model equivalence for the tandem-repeat folders.
//
// reference_fold_loops is the straightforward implementation the folder
// started from: every period rebuilds the sequence and its hash column,
// whether or not the period repeats.  sig::fold_loops skips periods without
// a repeat and shares one hash column across periods; these tests require
// it (and fold_anchored) to produce exactly the same loop nests -- kind,
// hash, iteration count and leaf payload at every node -- on random
// sequences and on the clustered symbol streams of the NAS class-S traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/nas.h"
#include "mpi/world.h"
#include "sig/cluster.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace psk::sig {
namespace {

// ------------------------------------------------------- reference model

using RefColumn = std::vector<std::uint64_t>;

RefColumn ref_fingerprints_of(const SigSeq& seq) {
  RefColumn fp(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) fp[i] = seq[i].hash;
  return fp;
}

bool ref_block_equal(const SigSeq& seq, const RefColumn& fp, std::size_t i,
                     std::size_t j, std::size_t p) {
  for (std::size_t k = 0; k < p; ++k) {
    if (fp[i + k] != fp[j + k]) return false;
  }
  for (std::size_t k = 0; k < p; ++k) {
    if (!(seq[i + k] == seq[j + k])) return false;
  }
  return true;
}

std::size_t ref_primitive_period(const SigSeq& seq, const RefColumn& fp,
                                 std::size_t i, std::size_t p) {
  for (std::size_t q = 1; q <= p / 2; ++q) {
    if (p % q != 0) continue;
    bool periodic = true;
    for (std::size_t offset = q; offset < p && periodic; offset += q) {
      periodic = ref_block_equal(seq, fp, i, i + offset, q);
    }
    if (periodic) return q;
  }
  return p;
}

SigSeq reference_fold_loops(SigSeq seq, std::size_t max_period);

bool ref_collapse_period(SigSeq& seq, std::size_t p, std::size_t max_period) {
  if (seq.size() < 2 * p) return false;
  const RefColumn fp = ref_fingerprints_of(seq);
  bool changed = false;
  SigSeq out;
  out.reserve(seq.size());
  std::size_t i = 0;
  while (i < seq.size()) {
    if (i + 2 * p <= seq.size() && ref_block_equal(seq, fp, i, i + p, p)) {
      const std::size_t q = ref_primitive_period(seq, fp, i, p);
      std::uint64_t repeats = 1;
      while (i + (repeats + 1) * q <= seq.size() &&
             ref_block_equal(seq, fp, i,
                             i + static_cast<std::size_t>(repeats) * q, q)) {
        ++repeats;
      }
      SigSeq body(seq.begin() + static_cast<std::ptrdiff_t>(i),
                  seq.begin() + static_cast<std::ptrdiff_t>(i + q));
      body = reference_fold_loops(std::move(body), max_period);
      out.push_back(SigNode::loop(repeats, std::move(body)));
      i += static_cast<std::size_t>(repeats) * q;
      changed = true;
    } else {
      out.push_back(std::move(seq[i]));
      ++i;
    }
  }
  seq = std::move(out);
  return changed;
}

SigSeq reference_fold_loops(SigSeq seq, std::size_t max_period) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t p = std::min(max_period, seq.size() / 2); p >= 1; --p) {
      changed = ref_collapse_period(seq, p, max_period) || changed;
      if (seq.size() < 2) break;
    }
  }
  return seq;
}

SigSeq reference_fold_anchored(SigSeq seq, std::size_t max_period) {
  SigSeq out;
  SigSeq segment;
  const auto flush_segment = [&] {
    if (segment.empty()) return;
    SigSeq folded = reference_fold_loops(std::move(segment), max_period);
    out.insert(out.end(), std::make_move_iterator(folded.begin()),
               std::make_move_iterator(folded.end()));
    segment.clear();
  };
  for (SigNode& node : seq) {
    if (node.kind == SigNode::Kind::kLeaf &&
        mpi::is_collective(node.event.type)) {
      flush_segment();
      out.push_back(std::move(node));
    } else {
      segment.push_back(std::move(node));
    }
  }
  flush_segment();
  return out;
}

// ------------------------------------------------------------ comparison

/// Full structural identity: SigNode::operator== compares leaves by cluster
/// id only, so this also compares the hash and every leaf payload field.
void expect_identical(const SigSeq& expected, const SigSeq& actual,
                      const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SigNode& e = expected[i];
    const SigNode& a = actual[i];
    const std::string at = where + "/" + std::to_string(i);
    ASSERT_EQ(e.kind, a.kind) << at;
    ASSERT_EQ(e.hash, a.hash) << at;
    ASSERT_EQ(e.iterations, a.iterations) << at;
    ASSERT_EQ(e.event.cluster_id, a.event.cluster_id) << at;
    ASSERT_EQ(e.event.type, a.event.type) << at;
    ASSERT_EQ(e.event.peer, a.event.peer) << at;
    ASSERT_EQ(e.event.tag, a.event.tag) << at;
    ASSERT_EQ(e.event.bytes, a.event.bytes) << at;
    ASSERT_EQ(e.event.parts, a.event.parts) << at;
    ASSERT_EQ(e.event.pre_compute, a.event.pre_compute) << at;
    ASSERT_EQ(e.event.observations, a.event.observations) << at;
    ASSERT_EQ(e.event.mean_duration, a.event.mean_duration) << at;
    expect_identical(e.body, a.body, at);
  }
  EXPECT_EQ(expected, actual) << where;
}

void expect_folds_match(const SigSeq& input, std::size_t max_period,
                        const std::string& where) {
  expect_identical(reference_fold_loops(input, max_period),
                   fold_loops(input, FoldOptions{max_period}),
                   where + " fold_loops");
  expect_identical(reference_fold_anchored(input, max_period),
                   fold_anchored(input, FoldOptions{max_period}),
                   where + " fold_anchored");
}

// ---------------------------------------------------------- random inputs

/// Appends a block repeated 2-4 times whose body mixes random symbols and
/// (while depth lasts) nested repeated blocks.
void append_nested(util::Rng& rng, int alphabet, int depth,
                   std::vector<int>& ids) {
  std::vector<int> body;
  const std::uint64_t parts = 1 + rng.below(3);
  for (std::uint64_t k = 0; k < parts; ++k) {
    if (depth > 0 && rng.below(2) == 0) {
      append_nested(rng, alphabet, depth - 1, body);
    } else {
      body.push_back(static_cast<int>(
          rng.below(static_cast<std::uint64_t>(alphabet))));
    }
  }
  const std::uint64_t repeats = 2 + rng.below(3);
  for (std::uint64_t r = 0; r < repeats; ++r) {
    ids.insert(ids.end(), body.begin(), body.end());
  }
}

/// `length` symbols over `alphabet` ids: noise, long single-symbol runs,
/// nested periodic blocks and the odd long block repeated whole.
std::vector<int> random_ids(std::uint64_t seed, std::size_t length,
                            int alphabet) {
  util::Rng rng(seed);
  const auto symbol = [&] {
    return static_cast<int>(rng.below(static_cast<std::uint64_t>(alphabet)));
  };
  std::vector<int> ids;
  while (ids.size() < length) {
    switch (rng.below(8)) {
      case 0:
      case 1:
        ids.push_back(symbol());
        break;
      case 2:
      case 3:
        ids.insert(ids.end(), 5 + rng.below(60), symbol());
        break;
      case 4: {
        std::vector<int> block(100 + rng.below(200));
        for (int& id : block) id = symbol();
        for (std::uint64_t r = 2 + rng.below(2); r > 0; --r) {
          ids.insert(ids.end(), block.begin(), block.end());
        }
        break;
      }
      default:
        append_nested(rng, alphabet, 2, ids);
    }
  }
  ids.resize(length);
  return ids;
}

SigSeq seq_of(const std::vector<int>& ids) {
  SigSeq seq;
  seq.reserve(ids.size());
  for (int id : ids) {
    SigEvent event;
    event.cluster_id = id;
    event.pre_compute = 0.001 * (id + 1);
    seq.push_back(SigNode::leaf(event));
  }
  return seq;
}

/// Turns every `stride`-th node into one of three collective leaves.
void sprinkle_collectives(SigSeq& seq, std::size_t stride) {
  for (std::size_t i = stride / 2; i < seq.size(); i += stride) {
    SigEvent event = seq[i].event;
    event.type = mpi::CallType::kAllreduce;
    event.cluster_id = 100 + static_cast<int>(i % 3);
    seq[i] = SigNode::leaf(event);
  }
}

class FoldReference : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FoldReference,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(FoldReference, LongSequencesDefaultOptions) {
  // Longer than 2 * max_period, so every period up to 512 is tried.
  const std::uint64_t seed = GetParam();
  const int alphabet = 2 + static_cast<int>(seed % 3);
  const SigSeq seq = seq_of(random_ids(seed, 1100 + 40 * seed, alphabet));
  expect_folds_match(seq, FoldOptions{}.max_period, "seed " +
                                                        std::to_string(seed));
}

TEST_P(FoldReference, SmallMaxPeriod) {
  const std::uint64_t seed = GetParam();
  const SigSeq seq = seq_of(random_ids(seed * 7919, 600, 2));
  expect_folds_match(seq, 2, "seed " + std::to_string(seed));
}

TEST_P(FoldReference, CollectivesSprinkledIn) {
  const std::uint64_t seed = GetParam();
  SigSeq seq = seq_of(random_ids(seed * 104729, 800, 3));
  sprinkle_collectives(seq, 17 + 6 * seed);
  expect_folds_match(seq, FoldOptions{}.max_period,
                     "seed " + std::to_string(seed));
}

// ------------------------------------------------------ NAS symbol streams

class FoldReferenceNas : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Suite, FoldReferenceNas,
                         ::testing::Values("BT", "CG", "IS", "LU", "MG",
                                           "SP"));

TEST_P(FoldReferenceNas, ClusteredStreamsOfEveryRank) {
  const char* name = GetParam();
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  trace::Trace trace = trace::record_run(
      world, apps::find_benchmark(name).make(apps::NasClass::kS), name);
  trace::fold_nonblocking(trace);
  for (const double threshold : {0.0, 0.1}) {
    ClusterOptions options;
    options.threshold = threshold;
    for (const trace::RankTrace& rank : trace.ranks) {
      const ClusterResult clusters = cluster_events(rank.events, options);
      SigSeq seq;
      seq.reserve(clusters.symbols.size());
      for (int symbol : clusters.symbols) {
        seq.push_back(SigNode::leaf(
            clusters.prototypes[static_cast<std::size_t>(symbol)]));
      }
      expect_folds_match(seq, FoldOptions{}.max_period,
                         std::string(name) + " rank " +
                             std::to_string(rank.rank) + " threshold " +
                             std::to_string(threshold));
    }
  }
}

}  // namespace
}  // namespace psk::sig
