#include "sig/compress.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "trace/fold.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::sig {

namespace {

/// Contiguous copy of each node's structural hash; the repeat scans walk
/// this column and fall back to the exact node comparison only when every
/// hash in the block matches.  collapse_period finds its first period-p
/// candidate with a running streak over the column (the number of
/// consecutive k with fp[k] == fp[k+p]): a repeat can start at k + 1 - p
/// only once the streak reaches p, so the exact check runs only there.
/// fold_loops builds the column once per call and rebuilds it only after a
/// collapse has changed `seq`; a period with no repeat leaves both alone.
/// Hashes never change during a pass, so the column stays valid while nodes
/// are moved out of `seq` (only already consumed positions are moved from).
using FpColumn = std::vector<std::uint64_t>;

FpColumn fingerprints_of(const SigSeq& seq) {
  FpColumn fp(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) fp[i] = seq[i].hash;
  return fp;
}

/// True when seq[i..i+p) == seq[j..j+p) structurally.
bool block_equal(const SigSeq& seq, const FpColumn& fp, std::size_t i,
                 std::size_t j, std::size_t p) {
  for (std::size_t k = 0; k < p; ++k) {
    if (fp[i + k] != fp[j + k]) return false;
  }
  // Hash equality is necessary but not sufficient (SigNode::operator==
  // short-circuits on unequal hashes itself); confirm exactly.
  for (std::size_t k = 0; k < p; ++k) {
    if (!(seq[i + k] == seq[j + k])) return false;
  }
  return true;
}

/// Smallest period q such that seq[i..i+p) is a power of its prefix of
/// length q (q divides p).  Canonicalizes an accidental large-period match
/// like (XX)(XX) into the primitive unit X.
std::size_t primitive_period(const SigSeq& seq, const FpColumn& fp,
                             std::size_t i, std::size_t p) {
  for (std::size_t q = 1; q <= p / 2; ++q) {
    if (p % q != 0) continue;
    bool periodic = true;
    for (std::size_t offset = q; offset < p && periodic; offset += q) {
      periodic = block_equal(seq, fp, i, i + offset, q);
    }
    if (periodic) return q;
  }
  return p;
}

/// Start of the leftmost period-p tandem repeat in `seq`, or seq.size() when
/// there is none.
std::size_t first_repeat(const SigSeq& seq, const FpColumn& fp,
                         std::size_t p) {
  std::size_t run = 0;
  for (std::size_t k = 0; k + p < seq.size(); ++k) {
    run = fp[k] == fp[k + p] ? run + 1 : 0;
    if (run >= p && block_equal(seq, fp, k + 1 - p, k + 1, p)) {
      return k + 1 - p;
    }
  }
  return seq.size();
}

/// One left-to-right pass collapsing tandem repeats of period `p`; `fp` is
/// the hash column of `seq`.  Matches are reduced to their primitive period
/// before collapsing, and bodies are folded recursively, so a period-p hit
/// yields the canonical nest.  Returns false, with `seq` untouched, when
/// period p has no repeat.
bool collapse_period(SigSeq& seq, const FpColumn& fp, std::size_t p,
                     std::size_t max_period) {
  if (seq.size() < 2 * p) return false;
  const std::size_t first = first_repeat(seq, fp, p);
  if (first == seq.size()) return false;
  SigSeq out;
  out.reserve(seq.size());
  out.insert(out.end(), std::make_move_iterator(seq.begin()),
             std::make_move_iterator(seq.begin() +
                                     static_cast<std::ptrdiff_t>(first)));
  std::size_t i = first;
  while (i < seq.size()) {
    if (i + 2 * p <= seq.size() && block_equal(seq, fp, i, i + p, p)) {
      const std::size_t q = primitive_period(seq, fp, i, p);
      std::uint64_t repeats = 1;
      while (i + (repeats + 1) * q <= seq.size() &&
             block_equal(seq, fp, i,
                         i + static_cast<std::size_t>(repeats) * q, q)) {
        ++repeats;
      }
      SigSeq body(seq.begin() + static_cast<std::ptrdiff_t>(i),
                  seq.begin() + static_cast<std::ptrdiff_t>(i + q));
      body = fold_loops(std::move(body), FoldOptions{max_period});
      out.push_back(SigNode::loop(repeats, std::move(body)));
      i += static_cast<std::size_t>(repeats) * q;
    } else {
      out.push_back(std::move(seq[i]));
      ++i;
    }
  }
  seq = std::move(out);
  return true;
}

/// Column views of every rank's event stream, built once and reused across
/// the compressor's threshold search (each threshold step re-clusters every
/// rank; the columns depend only on the events).
std::vector<trace::EventColumns> columns_of(const trace::Trace& trace) {
  std::vector<trace::EventColumns> columns;
  columns.reserve(trace.ranks.size());
  for (const trace::RankTrace& rank : trace.ranks) {
    columns.push_back(trace::make_columns(rank.events));
  }
  return columns;
}

Signature build_signature(const trace::Trace& trace,
                          const std::vector<trace::EventColumns>& columns,
                          double threshold, const CompressOptions& options,
                          std::size_t* total_events_out,
                          std::size_t* total_leaves_out) {
  ClusterOptions cluster_options;
  cluster_options.threshold = threshold;
  cluster_options.bytes_weight = options.bytes_weight;
  cluster_options.compute_weight = options.compute_weight;

  Signature signature;
  signature.app_name = trace.app_name;
  signature.threshold = threshold;

  std::size_t total_events = 0;
  std::size_t total_leaves = 0;
  for (std::size_t r = 0; r < trace.ranks.size(); ++r) {
    const trace::RankTrace& rank = trace.ranks[r];
    ClusterResult clusters;
    {
      obs::PhaseProfiler::Scope scope(options.profiler, "cluster");
      clusters = cluster_events(rank.events, columns[r], cluster_options);
    }
    SigSeq seq;
    seq.reserve(clusters.symbols.size());
    for (int symbol : clusters.symbols) {
      seq.push_back(
          SigNode::leaf(clusters.prototypes[static_cast<std::size_t>(symbol)]));
    }
    {
      obs::PhaseProfiler::Scope scope(options.profiler, "compress");
      if (options.anchor_at_collectives) {
        seq = fold_anchored(std::move(seq), FoldOptions{options.max_period});
      } else {
        seq = fold_loops(std::move(seq), FoldOptions{options.max_period});
      }
    }

    RankSignature rank_signature;
    rank_signature.rank = rank.rank;
    rank_signature.total_time = rank.total_time;
    rank_signature.final_compute = rank.final_compute;
    rank_signature.roots = std::move(seq);

    total_events += rank.events.size();
    total_leaves += leaf_count(rank_signature.roots);
    signature.ranks.push_back(std::move(rank_signature));
  }
  signature.compression_ratio =
      total_leaves > 0 ? static_cast<double>(total_events) /
                             static_cast<double>(total_leaves)
                       : 1.0;
  if (total_events_out != nullptr) *total_events_out = total_events;
  if (total_leaves_out != nullptr) *total_leaves_out = total_leaves;
  return signature;
}

}  // namespace

SigSeq fold_anchored(SigSeq seq, const FoldOptions& options) {
  SigSeq out;
  SigSeq segment;
  const auto flush_segment = [&] {
    if (segment.empty()) return;
    SigSeq folded = fold_loops(std::move(segment), options);
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

SigSeq fold_loops(SigSeq seq, const FoldOptions& options) {
  // "Starting with the largest matches and working down to sub-string
  // matches of a single symbol" (paper section 3.2): descending periods,
  // repeated until no repeat of any length remains.  Largest-first matters:
  // a small-period collapse (e.g. two adjacent Allreduces) can otherwise
  // destroy the tail of a much longer repetition that contains it.
  FpColumn fp = fingerprints_of(seq);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t p = std::min(options.max_period, seq.size() / 2); p >= 1;
         --p) {
      if (collapse_period(seq, fp, p, options.max_period)) {
        changed = true;
        fp = fingerprints_of(seq);
      }
      if (seq.size() < 2) break;
    }
  }
  return seq;
}

void check_threshold_schedule(const CompressOptions& options,
                              const std::string& caller) {
  util::require(std::isfinite(options.max_threshold) &&
                    options.max_threshold >= 0,
                caller + ": max_threshold must be finite and >= 0");
  util::require(std::isfinite(options.threshold_step) &&
                    options.threshold_step > 0,
                caller + ": threshold_step must be finite and positive");
}

Signature compress_at_threshold(const trace::Trace& folded_trace,
                                const ThresholdCompressOptions& options) {
  util::require(trace::is_fully_folded(folded_trace),
                "compress: trace contains raw nonblocking events; run "
                "trace::fold_nonblocking first");
  return build_signature(folded_trace, columns_of(folded_trace),
                         options.threshold, options.compress, nullptr,
                         nullptr);
}

Signature compress(const trace::Trace& folded_trace,
                   const CompressOptions& options) {
  util::require(trace::is_fully_folded(folded_trace),
                "compress: trace contains raw nonblocking events; run "
                "trace::fold_nonblocking first");
  util::require(options.target_ratio >= 1.0,
                "compress: target_ratio must be >= 1");
  check_threshold_schedule(options, "compress");

  const std::vector<trace::EventColumns> columns = columns_of(folded_trace);
  Signature best;
  bool have_best = false;
  // Integer step index: a float accumulator (threshold += step) would never
  // advance for step <= 0 and would drift off the intended schedule after
  // many additions.
  for (int step = 0;; ++step) {
    const double threshold = step * options.threshold_step;
    if (threshold > options.max_threshold + 1e-12) break;
    Signature signature = build_signature(folded_trace, columns, threshold,
                                          options, nullptr, nullptr);
    if (!have_best ||
        signature.compression_ratio > best.compression_ratio) {
      best = signature;
      have_best = true;
    }
    if (signature.compression_ratio >= options.target_ratio) {
      return signature;
    }
  }
  util::log_info() << "compress: target ratio " << options.target_ratio
                   << " not reached; best achieved "
                   << best.compression_ratio << " at threshold "
                   << best.threshold;
  return best;
}

}  // namespace psk::sig
