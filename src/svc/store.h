// Hot-skeleton store: the server-side half of predict-by-hash reuse.
//
// Every skeleton that enters the service -- uploaded with a predict, or
// constructed server-side from a trace -- is re-encoded to its *canonical*
// PSKARCH1 container bytes and retained here under
// archive::fingerprint64(bytes).  Clients then name the skeleton by hash
// instead of re-sending the container on every request, which is the
// difference between a ~100-byte request and re-uploading megabytes.
//
// SkeletonStore is the content-address policy over the two-tier BlobStore
// (cache/blob_store.h): entries have an empty key and are named by their
// own bytes.  It adds a memory byte cap, a disk cap and the chaos hooks.
// With `disk_dir` set, a restarted daemon keeps serving the skeletons it
// spilled; a damaged entry is quarantined and the lookup misses, which has
// an explicit protocol answer (StatusCode::kNotFound).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cache/blob_store.h"
#include "svc/chaos.h"

namespace psk::obs {
class MetricsRegistry;
}

namespace psk::svc {

using StoreStats = cache::BlobStats;

struct StoreOptions {
  /// Memory-tier caps; `capacity_entries` == 0 disables the memory tier
  /// only.  A single container larger than `capacity_bytes` skips memory
  /// but still spills to disk.
  std::size_t capacity_entries = 256;
  std::size_t capacity_bytes = 256u << 20;
  /// Durable tier directory; empty = memory-only.  Created if missing; an
  /// uncreatable directory disables the tier with a warning rather than
  /// failing the daemon.
  std::string disk_dir;
  /// Cap on total on-disk entry bytes; the oldest indexed files are
  /// removed past it.
  std::size_t disk_capacity_bytes = 1024u << 20;
  /// Fault injection (null in production): kStoreWriteFail, then
  /// kStoreCorrupt, are consulted just before each disk write.
  ChaosSchedule* chaos = nullptr;
};

/// Thread-safe two-tier store of canonical skeleton container bytes, keyed
/// by their content hash.
class SkeletonStore {
 public:
  explicit SkeletonStore(StoreOptions options);

  /// Retains `bytes` under their content hash and returns that hash.
  std::uint64_t put(std::string bytes);

  /// The retained bytes for `hash`; nullopt on a miss (evicted, never
  /// uploaded, or quarantined).
  std::optional<std::string> get(std::uint64_t hash) {
    return blob_.get(hash, {});
  }

  StoreStats stats() const { return blob_.stats(); }

  /// Publishes the stats as svc.store.* counters.
  void publish(obs::MetricsRegistry& metrics) const;

  /// The disk path an entry for `hash` lives at (tests and the soak use it
  /// to damage entries on purpose); empty when the disk tier is off.
  std::string entry_path(std::uint64_t hash) const {
    return blob_.entry_path(hash);
  }

 private:
  cache::BlobStore blob_;
};

}  // namespace psk::svc
