// Two-tier blob store: the one content-addressed store behind the result
// cache (cache/cache.h) and pskd's skeleton store (svc/store.h).
//
// An entry is (hash, key, value).  A keyed entry is named by its key --
// hash == fingerprint64(key) -- and echoes the key next to the value, so a
// 64-bit collision is a miss, never a wrong value.  A content-addressed
// entry has an empty key and is named by its own value -- hash ==
// fingerprint64(value).  The store does not know which caller it serves.
//
// Two tiers:
//   - memory: a thread-safe LRU capped by entry count and by bytes;
//   - disk (optional): one `<hash>.pskb` file per entry in the PSKB1
//     envelope below, written through archive::write_file_atomic.
//
// One policy per decision:
//   - A memory miss reads the `<hash>` file directly, so processes that
//     share a directory see each other's entries.  The index built from the
//     directory at startup serves only the disk byte cap.
//   - A damaged, wrong-hash or wrong-key disk entry is never served: it is
//     a counted miss (verify_failures) and is renamed to `<file>.quar`.
//   - A failed disk write is counted and the first one is logged; the entry
//     stays memory-only and later writes are tried again.
//   - An entry cap of 0 disables the memory tier only.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "archive/wire.h"

namespace psk::obs {
class MetricsRegistry;
}

namespace psk::cache {

// ------------------------------------------------------------ envelope
//
// One disk entry, all integers little-endian:
//   magic "PSKB1", u64 hash, u32 key size, key bytes, u32 value size,
//   value bytes, u64 FNV-1a over everything before it.

inline constexpr std::string_view kEntryMagic = "PSKB1";

struct BlobEntry {
  std::uint64_t hash = 0;
  std::string key;  // empty for a content-addressed entry
  std::string value;
};

/// The name an entry is filed under: its key, or its value when the key is
/// empty.
std::uint64_t entry_hash(std::string_view key, std::string_view value);

std::string encode_entry(std::uint64_t hash, std::string_view key,
                         std::string_view value);

/// Decodes and verifies one entry: magic, every declared size against the
/// bytes present (before anything is allocated), no trailing bytes, the
/// checksum, and hash == entry_hash(key, value).  Any failure is a typed
/// error; callers quarantine, they never serve.
archive::Result<BlobEntry> decode_entry(std::string_view bytes);

// --------------------------------------------------------------- stats

struct BlobStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;       // served from memory
  std::uint64_t disk_hits = 0;  // served from disk (then kept in memory)
  std::uint64_t misses = 0;
  std::uint64_t inserted = 0;   // puts of a hash not in memory
  std::uint64_t refreshed = 0;  // puts of an entry already in memory
  std::uint64_t evicted = 0;    // memory LRU evictions
  /// Entries refused: a memory entry echoing another key, or a damaged,
  /// wrong-hash or wrong-key disk entry (quarantined).
  std::uint64_t verify_failures = 0;
  std::uint64_t disk_write_failures = 0;
  std::uint64_t disk_evicted = 0;  // files removed to honour the disk cap
  std::uint64_t restored = 0;      // files indexed at startup
  std::uint64_t entries = 0;       // current memory entries
  std::uint64_t bytes = 0;         // current memory key + value bytes
  std::uint64_t disk_entries = 0;  // current indexed files
  std::uint64_t disk_bytes = 0;    // current indexed file bytes

  std::uint64_t total_hits() const { return hits + disk_hits; }
  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(total_hits()) /
                              static_cast<double>(lookups);
  }
};

/// One published counter: its metric name and the field it reports.
struct StatName {
  const char* name;
  std::uint64_t BlobStats::*field;
};

/// Adds each named field of `stats` to its counter in `metrics`.
void publish_stats(obs::MetricsRegistry& metrics, const BlobStats& stats,
                   std::span<const StatName> names);

// --------------------------------------------------------------- store

/// What a fault-injection hook does to the disk write about to happen.
enum class WriteFault { kNone, kFail, kCorrupt };

struct BlobOptions {
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  /// Memory caps; 0 entries disables the memory tier.  An entry larger
  /// than `memory_bytes` skips memory but still goes to disk.
  std::size_t memory_entries = 4096;
  std::size_t memory_bytes = kUnlimited;
  /// Disk directory (created if missing); empty disables the disk tier.
  std::string disk_dir;
  /// Cap on indexed file bytes; the oldest indexed files go past it.
  std::size_t disk_bytes = kUnlimited;
  /// Consulted once per disk write, just before it happens (null = none).
  std::function<WriteFault()> write_fault;
};

class BlobStore {
 public:
  explicit BlobStore(BlobOptions options);

  /// The value filed under `hash` whose echoed key is `key`: memory first,
  /// then the `<hash>` file.  Thread-safe.
  std::optional<std::string> get(std::uint64_t hash, std::string_view key);

  /// Files `value` under `hash` (precondition: hash == entry_hash(key,
  /// value)) in memory and, unless already indexed there, on disk.
  void put(std::uint64_t hash, std::string_view key, std::string value);

  BlobStats stats() const;
  const BlobOptions& options() const { return options_; }

  /// Where the entry for `hash` lives on disk; empty when the tier is off.
  std::string entry_path(std::uint64_t hash) const;

 private:
  struct Entry {
    std::uint64_t hash;
    std::string key;
    std::string value;
  };
  struct DiskFile {
    std::uint64_t hash;
    std::uint64_t size;
  };
  using Lru = std::list<Entry>;

  void remember_locked(std::uint64_t hash, std::string_view key,
                       std::string value);
  void erase_locked(Lru::iterator entry);
  std::optional<std::string> read_disk_locked(std::uint64_t hash,
                                              std::string_view key);
  void write_disk_locked(std::uint64_t hash, std::string_view key,
                         std::string_view value);
  void index_locked(std::uint64_t hash, std::uint64_t size);
  void forget_disk_locked(std::uint64_t hash);

  BlobOptions options_;
  mutable std::mutex mutex_;
  Lru lru_;  // most recently used first
  std::unordered_map<std::uint64_t, Lru::iterator> memory_;
  std::list<DiskFile> disk_order_;  // oldest first
  std::unordered_map<std::uint64_t, std::list<DiskFile>::iterator> disk_;
  BlobStats stats_;
};

}  // namespace psk::cache
