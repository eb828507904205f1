// Content-addressed result cache for simulation measurements.
//
// Every measurement in this repo is a seeded, deterministic simulation: the
// same (signature, scaling, scenario, sim config, seed) cell always computes
// the same doubles, bit for bit.  That makes results safe to memoize by
// *content*: a cache key is the canonical little-endian serialization of
// everything that determines the measurement (see cache/keys.h for the
// domain builders), addressed by its 64-bit FNV-1a fingerprint.
//
// ResultCache is the key policy over the two-tier BlobStore
// (cache/blob_store.h): entries are filed under the key's hash and echo the
// full key, so a 64-bit collision degrades to a miss (counted in
// verify_failures), never to a wrong result.  It has no byte cap and no
// disk cap.
//
// Values are opaque byte strings; encode_values()/decode_values() provide
// the standard codec for the common double-vector payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/blob_store.h"

namespace psk::cache {

/// A content-addressed key: the canonical serialized form of everything
/// that determines a measurement, plus its 64-bit fingerprint.  The full
/// bytes travel with the key so both tiers can verify against collisions.
struct CacheKey {
  std::uint64_t hash = 0;
  std::string bytes;
};

/// Builds a CacheKey from typed fields.  The domain tag (e.g. "app-run/1")
/// namespaces key families and carries their layout version: bump it
/// whenever the field sequence changes and stale entries silently miss.
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain);

  KeyBuilder& f64(double value);
  KeyBuilder& u64(std::uint64_t value);
  KeyBuilder& i64(std::int64_t value);
  KeyBuilder& flag(bool value);
  /// Length-prefixed text field.
  KeyBuilder& text(std::string_view value);
  /// Appends pre-encoded canonical bytes (archive::encode output),
  /// length-prefixed so adjacent fields cannot alias.
  KeyBuilder& raw(std::string_view canonical_bytes);

  CacheKey finish() &&;

 private:
  std::string bytes_;
};

using CacheStats = BlobStats;

struct CacheOptions {
  /// Memory-tier capacity in entries; 0 disables the memory tier.
  std::size_t memory_entries = 4096;
  /// On-disk store directory (created if missing); empty disables disk.
  std::string disk_dir;
};

class ResultCache {
 public:
  using Options = CacheOptions;

  explicit ResultCache(Options options = {});

  /// Returns the cached value, or nullopt on miss.  Thread-safe.
  std::optional<std::string> lookup(const CacheKey& key) {
    return blob_.get(key.hash, key.bytes);
  }

  /// Inserts in both tiers.  Thread-safe.
  void store(const CacheKey& key, std::string_view value) {
    blob_.put(key.hash, key.bytes, std::string(value));
  }

  CacheStats stats() const { return blob_.stats(); }

  /// Publishes the stats as obs counters (see publish_stats).
  void publish(obs::MetricsRegistry& metrics) const;

  const BlobOptions& options() const { return blob_.options(); }

 private:
  BlobStore blob_;
};

/// Publishes a stats snapshot into a registry: cache.lookup, cache.hit,
/// cache.disk_hit, cache.miss, cache.store, cache.evict, cache.verify_fail,
/// cache.disk_write_fail and cache.hit_rate.
void publish_stats(obs::MetricsRegistry& metrics, const CacheStats& stats);

/// Deterministic key=value rendering of the stats (the obs counter dump),
/// suitable for a --cache-stats artifact file.
std::string stats_kv(const CacheStats& stats);

// ----------------------------------------------------------- value codec

/// Canonical encoding of a double-vector payload (count + IEEE-754 bits).
std::string encode_values(const std::vector<double>& values);
/// Decodes; nullopt when `bytes` is not a well-formed value payload.
std::optional<std::vector<double>> decode_values(std::string_view bytes);

// ------------------------------------------------------------ sweep cells

/// Canonical key for a free-form sweep cell under a caller-chosen domain
/// string.  The domain keeps unrelated sweeps (or incompatible versions of
/// the same sweep) from colliding in a shared cache; journaled_sweep keys
/// its journal lines by the hash of this key.
CacheKey sweep_cell_key(std::string_view domain, std::string_view cell);
std::uint64_t sweep_cell_hash(std::string_view domain, std::string_view cell);

/// Get-or-compute for the ubiquitous single-double measurement.  A null
/// cache degenerates to calling `compute` directly, so call sites stay
/// branch-free.  `Fn` is any callable returning double.
template <typename Fn>
double memoize_scalar(ResultCache* cache, const CacheKey& key, Fn&& compute) {
  if (cache != nullptr) {
    if (std::optional<std::string> hit = cache->lookup(key)) {
      if (std::optional<std::vector<double>> values = decode_values(*hit);
          values && values->size() == 1) {
        return (*values)[0];
      }
    }
  }
  const double value = compute();
  if (cache != nullptr) cache->store(key, encode_values({value}));
  return value;
}

}  // namespace psk::cache
