#include "runner/journal.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "archive/wire.h"
#include "cache/cache.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::runner {

namespace {

// Journal line format (text, one completed cell per line):
//     <cell-hash> TAB <key> TAB <status> TAB <payload-or-detail> NEWLINE
// The leading field is the 16-hex-digit content hash of (domain, key) --
// the canonical cell identity, so replay matches cells by hash no matter
// how the grid was ordered when the journal was written; the echoed key
// guards against hash collisions.
// Keys and payloads are escaped (backslash, tab, newline), so a literal TAB
// only ever separates fields and a literal NEWLINE only ever ends a record.
// A line without its trailing newline -- the process died mid-append -- is
// ignored on replay, as is any line that fails to parse; later records for
// the same key win, so an interrupted-then-resumed journal stays valid.

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

bool unescape(const std::string& text, std::string& out) {
  out.clear();
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (++i == text.size()) return false;  // trailing backslash: truncated
    switch (text[i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: return false;
    }
  }
  return true;
}

bool status_from_name(const std::string& name, CellResult::Status& status) {
  if (name == "ok") status = CellResult::Status::kOk;
  else if (name == "failed") status = CellResult::Status::kFailed;
  else if (name == "timeout") status = CellResult::Status::kTimeout;
  else return false;
  return true;
}

/// Parses one complete journal line (newline already stripped).
bool parse_line(const std::string& line, std::string& key,
                CellResult& result) {
  const std::size_t tab1 = line.find('\t');
  if (tab1 == std::string::npos) return false;
  const std::size_t tab2 = line.find('\t', tab1 + 1);
  if (tab2 == std::string::npos) return false;
  if (!unescape(line.substr(0, tab1), key)) return false;
  if (!status_from_name(line.substr(tab1 + 1, tab2 - tab1 - 1),
                        result.status)) {
    return false;
  }
  std::string text;
  if (!unescape(line.substr(tab2 + 1), text)) return false;
  if (result.status == CellResult::Status::kOk) {
    result.payload = std::move(text);
    result.detail.clear();
  } else {
    result.payload.clear();
    result.detail = std::move(text);
  }
  return true;
}

void replay(const std::string& path, const std::vector<std::string>& keys,
            const std::unordered_map<std::uint64_t, std::size_t>& hash_index,
            std::vector<CellResult>& results, std::vector<char>& have,
            JournalReplayStats& stats) {
  std::ifstream in(path);
  if (!in) return;  // nothing journaled yet: run everything
  std::string line;
  // getline() consumes the final unterminated fragment too, but the eof
  // flag distinguishes it: a record is only trusted when its newline made
  // it to disk.
  while (std::getline(in, line)) {
    if (in.eof()) {  // truncated final line: the append was cut short
      stats.torn_tail = 1;
      break;
    }
    // Escaping guarantees raw TABs only separate fields, so a record has
    // exactly four: hash, key, status and payload.
    const std::size_t tab1 = line.find('\t');
    const std::optional<std::uint64_t> hash =
        archive::parse_fingerprint_hex(line.substr(0, tab1));
    std::string key;
    CellResult result;
    if (std::count(line.begin(), line.end(), '\t') != 3 || !hash ||
        !parse_line(line.substr(tab1 + 1), key, result)) {
      ++stats.dropped_unparsable;  // a damaged line: re-run the cell
      continue;
    }
    // The echoed key must agree: a hash matching a different key is a
    // collision and the record cannot be trusted.
    const auto it = hash_index.find(*hash);
    if (it == hash_index.end() || keys[it->second] != key) {
      ++stats.dropped_unknown;  // a journal from a different grid
      continue;
    }
    ++stats.replayed;
    results[it->second] = std::move(result);
    have[it->second] = 1;
  }
  if (stats.dropped() > 0) {
    util::log_warn() << "journal " << path << ": " << stats.render();
  }
}

}  // namespace

std::string JournalReplayStats::render() const {
  std::string out = "replayed " + std::to_string(replayed) + " cell(s)";
  if (dropped() > 0) {
    out += ", dropped " + std::to_string(dropped()) + " line(s) (" +
           std::to_string(dropped_unparsable) + " unparsable, " +
           std::to_string(dropped_unknown) + " unknown-key, " +
           std::to_string(torn_tail) + " torn tail)";
  }
  return out;
}

void JournalReplayStats::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("journal.replayed").add(static_cast<double>(replayed));
  metrics.counter("journal.dropped").add(static_cast<double>(dropped()));
  metrics.counter("journal.torn").add(static_cast<double>(torn_tail));
}

std::string status_name(CellResult::Status status) {
  switch (status) {
    case CellResult::Status::kOk: return "ok";
    case CellResult::Status::kFailed: return "failed";
    case CellResult::Status::kTimeout: return "timeout";
  }
  return "unknown";
}

std::vector<CellResult> journaled_sweep(
    const std::vector<std::string>& keys,
    const std::function<std::string(std::size_t)>& body,
    const JournaledSweepOptions& options) {
  std::unordered_set<std::string> seen;
  seen.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    util::require(seen.insert(keys[i]).second,
                  "journaled_sweep: duplicate cell key: " + keys[i]);
  }
  // Canonical cell identities: content hashes of (domain, key).
  std::vector<std::uint64_t> hashes(keys.size());
  std::unordered_map<std::uint64_t, std::size_t> hash_index;
  hash_index.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = cache::sweep_cell_hash(options.domain, keys[i]);
    util::require(hash_index.emplace(hashes[i], i).second,
                  "journaled_sweep: cell hash collision on key: " + keys[i]);
  }

  std::vector<CellResult> results(keys.size());
  std::vector<char> have(keys.size(), 0);
  JournalReplayStats replay_stats;
  if (options.resume && !options.journal_path.empty()) {
    replay(options.journal_path, keys, hash_index, results, have,
           replay_stats);
  }
  if (options.replay_stats != nullptr) *options.replay_stats = replay_stats;

  std::ofstream journal;
  std::mutex journal_mutex;
  if (!options.journal_path.empty()) {
    journal.open(options.journal_path, options.resume
                                           ? std::ios::out | std::ios::app
                                           : std::ios::out | std::ios::trunc);
    util::require(journal.is_open(), "journaled_sweep: cannot open journal " +
                                         options.journal_path);
  }

  std::vector<std::size_t> pending;
  pending.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!have[i]) pending.push_back(i);
  }

  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep(
      pending.size(),
      [&](std::size_t p) {
        const std::size_t i = pending[p];
        CellResult result;
        bool from_cache = false;
        if (options.cache != nullptr) {
          // Cross-journal reuse: another run sharing the cache directory may
          // have computed this cell already (same domain + key = same
          // deterministic payload by contract).
          const cache::CacheKey cell_key =
              cache::sweep_cell_key(options.domain, keys[i]);
          if (std::optional<std::string> hit = options.cache->lookup(cell_key)) {
            result.payload = std::move(*hit);
            from_cache = true;
          }
        }
        if (!from_cache) {
          try {
            result.payload = body(i);
          } catch (const TimeoutError& e) {
            result.status = CellResult::Status::kTimeout;
            result.detail = e.what();
          } catch (const std::exception& e) {
            result.status = CellResult::Status::kFailed;
            result.detail = e.what();
          }
          if (options.cache != nullptr &&
              result.status == CellResult::Status::kOk) {
            options.cache->store(
                cache::sweep_cell_key(options.domain, keys[i]),
                result.payload);
          }
        }
        if (journal.is_open()) {
          const std::string& text =
              result.status == CellResult::Status::kOk ? result.payload
                                                       : result.detail;
          const std::string line = archive::fingerprint_hex(hashes[i]) + '\t' +
                                   escape(keys[i]) + '\t' +
                                   status_name(result.status) + '\t' +
                                   escape(text) + '\n';
          const std::lock_guard<std::mutex> lock(journal_mutex);
          journal << line << std::flush;
        }
        results[i] = std::move(result);
      },
      sweep_options);
  return results;
}

}  // namespace psk::runner
