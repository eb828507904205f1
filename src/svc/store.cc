#include "svc/store.h"

#include <utility>

#include "archive/wire.h"

namespace psk::svc {

SkeletonStore::SkeletonStore(StoreOptions options)
    : blob_(cache::BlobOptions{
          .memory_entries = options.capacity_entries,
          .memory_bytes = options.capacity_bytes,
          .disk_dir = std::move(options.disk_dir),
          .disk_bytes = options.disk_capacity_bytes,
          .write_fault = [chaos = options.chaos] {
            if (chaos == nullptr) return cache::WriteFault::kNone;
            if (chaos->fire(ChaosSite::kStoreWriteFail)) {
              return cache::WriteFault::kFail;
            }
            return chaos->fire(ChaosSite::kStoreCorrupt)
                       ? cache::WriteFault::kCorrupt
                       : cache::WriteFault::kNone;
          }}) {}

std::uint64_t SkeletonStore::put(std::string bytes) {
  const std::uint64_t hash = archive::fingerprint64(bytes);
  blob_.put(hash, {}, std::move(bytes));
  return hash;
}

void SkeletonStore::publish(obs::MetricsRegistry& metrics) const {
  using S = cache::BlobStats;
  static constexpr cache::StatName kNames[] = {
      {"svc.store.inserted", &S::inserted},
      {"svc.store.refreshed", &S::refreshed},
      {"svc.store.hits", &S::hits},
      {"svc.store.misses", &S::misses},
      {"svc.store.evicted", &S::evicted},
      {"svc.store.entries", &S::entries},
      {"svc.store.bytes", &S::bytes},
      {"svc.store.disk_hits", &S::disk_hits},
      {"svc.store.disk_write_fail", &S::disk_write_failures},
      {"svc.store.disk_evicted", &S::disk_evicted},
      {"svc.store.quarantined", &S::verify_failures},
      {"svc.store.restored", &S::restored},
      {"svc.store.disk_entries", &S::disk_entries},
      {"svc.store.disk_bytes", &S::disk_bytes},
  };
  cache::publish_stats(metrics, stats(), kNames);
}

}  // namespace psk::svc
