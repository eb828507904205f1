#include "cache/cache.h"

#include "archive/wire.h"
#include "obs/metrics.h"

namespace psk::cache {

// ------------------------------------------------------------ KeyBuilder

KeyBuilder::KeyBuilder(std::string_view domain) {
  archive::put_string(bytes_, domain);
}

KeyBuilder& KeyBuilder::f64(double value) {
  archive::put_f64(bytes_, value);
  return *this;
}

KeyBuilder& KeyBuilder::u64(std::uint64_t value) {
  archive::put_u64(bytes_, value);
  return *this;
}

KeyBuilder& KeyBuilder::i64(std::int64_t value) {
  archive::put_i64(bytes_, value);
  return *this;
}

KeyBuilder& KeyBuilder::flag(bool value) {
  archive::put_bool(bytes_, value);
  return *this;
}

KeyBuilder& KeyBuilder::text(std::string_view value) {
  archive::put_string(bytes_, value);
  return *this;
}

KeyBuilder& KeyBuilder::raw(std::string_view canonical_bytes) {
  archive::put_string(bytes_, canonical_bytes);
  return *this;
}

CacheKey KeyBuilder::finish() && {
  CacheKey key;
  key.hash = archive::fingerprint64(bytes_);
  key.bytes = std::move(bytes_);
  return key;
}

// ------------------------------------------------------------ ResultCache

ResultCache::ResultCache(Options options)
    : blob_([&] {
        BlobOptions blob;
        blob.memory_entries = options.memory_entries;
        blob.disk_dir = std::move(options.disk_dir);
        return blob;
      }()) {}

void ResultCache::publish(obs::MetricsRegistry& metrics) const {
  publish_stats(metrics, stats());
}

void publish_stats(obs::MetricsRegistry& metrics, const CacheStats& stats) {
  static constexpr StatName kNames[] = {
      {"cache.lookup", &BlobStats::lookups},
      {"cache.hit", &BlobStats::hits},
      {"cache.disk_hit", &BlobStats::disk_hits},
      {"cache.miss", &BlobStats::misses},
      {"cache.store", &BlobStats::inserted},
      {"cache.evict", &BlobStats::evicted},
      {"cache.verify_fail", &BlobStats::verify_failures},
      {"cache.disk_write_fail", &BlobStats::disk_write_failures},
  };
  publish_stats(metrics, stats, kNames);
  metrics.counter("cache.hit_rate").add(stats.hit_rate());
}

std::string stats_kv(const CacheStats& stats) {
  obs::MetricsRegistry metrics;
  publish_stats(metrics, stats);
  return metrics.to_kv(0.0);
}

// ------------------------------------------------------------ sweep cells

CacheKey sweep_cell_key(std::string_view domain, std::string_view cell) {
  KeyBuilder builder("sweep-cell/1");
  builder.text(domain).text(cell);
  return std::move(builder).finish();
}

std::uint64_t sweep_cell_hash(std::string_view domain,
                              std::string_view cell) {
  return sweep_cell_key(domain, cell).hash;
}

// ----------------------------------------------------------- value codec

std::string encode_values(const std::vector<double>& values) {
  std::string out;
  out.reserve(4 + values.size() * 8);
  archive::put_u32(out, static_cast<std::uint32_t>(values.size()));
  for (const double value : values) archive::put_f64(out, value);
  return out;
}

std::optional<std::vector<double>> decode_values(std::string_view bytes) {
  archive::Cursor in(bytes);
  const std::uint32_t count = in.u32();
  if (!in.ok() || in.remaining() != static_cast<std::size_t>(count) * 8) {
    return std::nullopt;
  }
  std::vector<double> values;
  values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) values.push_back(in.f64());
  if (!in.ok() || !in.at_end()) return std::nullopt;
  return values;
}

}  // namespace psk::cache
