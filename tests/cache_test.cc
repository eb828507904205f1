// Tests for the content-addressed result cache (psk::cache): key building,
// cold->warm bit-identity, collision verification, LRU eviction order, the
// on-disk tier, torn-entry handling, and the blob store's tier policies.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "archive/wire.h"
#include "cache/cache.h"
#include "obs/metrics.h"

namespace psk::cache {
namespace {

CacheKey key_of(const std::string& tag) {
  KeyBuilder builder("test/1");
  builder.text(tag);
  return std::move(builder).finish();
}

std::string fresh_dir(const char* name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string entry_file(const std::string& dir, const CacheKey& key) {
  return dir + "/" + archive::fingerprint_hex(key.hash) + ".pskb";
}

// ------------------------------------------------------------------- keys

TEST(KeyBuilder, DeterministicAndDomainSeparated) {
  const CacheKey a = key_of("cell");
  const CacheKey b = key_of("cell");
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.bytes, b.bytes);
  KeyBuilder other("test/2");
  other.text("cell");
  const CacheKey c = std::move(other).finish();
  EXPECT_NE(a.bytes, c.bytes);
  EXPECT_NE(a.hash, c.hash);
}

TEST(KeyBuilder, FieldBoundariesCannotAlias) {
  // Length prefixes keep ("ab","c") and ("a","bc") from serializing to the
  // same bytes.
  KeyBuilder one("d");
  one.text("ab").text("c");
  KeyBuilder two("d");
  two.text("a").text("bc");
  EXPECT_NE(std::move(one).finish().bytes, std::move(two).finish().bytes);
}

TEST(KeyBuilder, TypedFieldsFeedTheHash) {
  KeyBuilder a("d");
  a.f64(1.0).u64(2).i64(-3).flag(true).raw("bytes");
  KeyBuilder b("d");
  b.f64(1.0).u64(2).i64(-3).flag(false).raw("bytes");
  EXPECT_NE(std::move(a).finish().hash, std::move(b).finish().hash);
}

TEST(SweepCellKey, DomainSeparatesSweeps) {
  EXPECT_EQ(sweep_cell_hash("grid/1", "cell"),
            sweep_cell_hash("grid/1", "cell"));
  EXPECT_NE(sweep_cell_hash("grid/1", "cell"),
            sweep_cell_hash("grid/2", "cell"));
}

// ------------------------------------------------------------ value codec

TEST(ValueCodec, RoundTripAndRejectsGarbage) {
  const std::vector<double> values = {0.0, -1.5, 3.14159, 1e300};
  const std::string bytes = encode_values(values);
  const auto decoded = decode_values(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, values);
  EXPECT_FALSE(decode_values("junk").has_value());
  EXPECT_FALSE(decode_values(bytes.substr(0, bytes.size() - 1)).has_value());
  EXPECT_FALSE(decode_values(bytes + "x").has_value());
}

// ---------------------------------------------------------------- memory

TEST(ResultCache, ColdThenWarmIsBitIdentical) {
  ResultCache cache;
  const CacheKey key = key_of("measure");
  int calls = 0;
  const auto compute = [&] {
    ++calls;
    return 0.12345678901234567;
  };
  const double cold = memoize_scalar(&cache, key, compute);
  const double warm = memoize_scalar(&cache, key, compute);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(std::memcmp(&cold, &warm, sizeof cold), 0);  // bit identity
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, NullCacheComputesEveryTime) {
  int calls = 0;
  const CacheKey key = key_of("x");
  const auto compute = [&] {
    ++calls;
    return 1.0;
  };
  EXPECT_EQ(memoize_scalar(nullptr, key, compute), 1.0);
  EXPECT_EQ(memoize_scalar(nullptr, key, compute), 1.0);
  EXPECT_EQ(calls, 2);
}

TEST(ResultCache, HashCollisionIsVerifyFailureNotWrongResult) {
  ResultCache cache;
  const CacheKey stored = key_of("original");
  cache.store(stored, encode_values({1.0}));
  CacheKey collider = key_of("impostor");
  collider.hash = stored.hash;  // forge a 64-bit collision
  EXPECT_FALSE(cache.lookup(collider).has_value());
  EXPECT_EQ(cache.stats().verify_failures, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The original entry still serves.
  EXPECT_TRUE(cache.lookup(stored).has_value());
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  CacheOptions options;
  options.memory_entries = 2;
  ResultCache cache(options);
  cache.store(key_of("a"), "A");
  cache.store(key_of("b"), "B");
  // Touch "a" so "b" becomes the eviction candidate.
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  cache.store(key_of("c"), "C");
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("b")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("c")).has_value());
}

TEST(ResultCache, ZeroCapacityDisablesMemoryTier) {
  CacheOptions options;
  options.memory_entries = 0;
  ResultCache cache(options);
  cache.store(key_of("a"), "A");
  EXPECT_FALSE(cache.lookup(key_of("a")).has_value());
  EXPECT_EQ(cache.stats().evicted, 0u);
}

// ------------------------------------------------------------------- disk

TEST(ResultCache, DiskTierSurvivesProcessRestart) {
  const std::string dir = fresh_dir("psk_cache_disk");
  const CacheKey key = key_of("persisted");
  CacheOptions options;
  options.disk_dir = dir;
  {
    ResultCache writer(options);
    writer.store(key, encode_values({42.5}));
  }
  ResultCache reader(options);
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  const auto values = decode_values(*hit);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(values->at(0), 42.5);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // The disk hit was promoted into memory: the next lookup is a memory hit.
  EXPECT_TRUE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, TornDiskEntryIsIgnoredAsMiss) {
  const std::string dir = fresh_dir("psk_cache_torn");
  const CacheKey key = key_of("torn");
  CacheOptions options;
  options.disk_dir = dir;
  {
    ResultCache writer(options);
    writer.store(key, encode_values({7.0}));
  }
  // Truncate the entry mid-payload: a crashed disk, not a crashed writer
  // (atomic rename prevents the latter).
  const std::string path = entry_file(dir, key);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 4u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().verify_failures, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // The damaged file was quarantined, not left to fail again.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quar"));
  // A store repairs the entry.
  reader.store(key, encode_values({7.0}));
  EXPECT_TRUE(reader.lookup(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskByteIsVerifyFailure) {
  const std::string dir = fresh_dir("psk_cache_corrupt");
  const CacheKey key = key_of("flip");
  CacheOptions options;
  options.disk_dir = dir;
  {
    ResultCache writer(options);
    writer.store(key, encode_values({9.0}));
  }
  const std::string path = entry_file(dir, key);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(
      std::filesystem::file_size(path) / 2));
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
  file.close();

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().verify_failures, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, MissingDiskEntryIsPlainMissNotVerifyFailure) {
  const std::string dir = fresh_dir("psk_cache_missing");
  CacheOptions options;
  options.disk_dir = dir;
  ResultCache cache(options);
  EXPECT_FALSE(cache.lookup(key_of("never-stored")).has_value());
  EXPECT_EQ(cache.stats().verify_failures, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, UnusableDiskDirectoryDegradesToMemoryOnly) {
  CacheOptions options;
  options.disk_dir = "/proc/definitely/not/creatable";
  ResultCache cache(options);
  EXPECT_TRUE(cache.options().disk_dir.empty());
  cache.store(key_of("a"), "A");
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
}

TEST(BlobStore, WrongKeyDiskEntryIsQuarantinedNeverServed) {
  const std::string dir = fresh_dir("psk_blob_wrong_key");
  const CacheKey key = key_of("wanted");
  const CacheKey other = key_of("other");
  // A well-formed entry for `other`, copied to the file `key` is read from.
  BlobOptions options;
  options.disk_dir = dir;
  {
    BlobStore writer(options);
    writer.put(other.hash, other.bytes, "value");
  }
  std::filesystem::copy_file(entry_file(dir, other), entry_file(dir, key));
  BlobStore reader(options);
  EXPECT_FALSE(reader.get(key.hash, key.bytes).has_value());
  EXPECT_EQ(reader.stats().verify_failures, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_TRUE(std::filesystem::exists(entry_file(dir, key) + ".quar"));
  // The entry filed under its own name still serves.
  EXPECT_EQ(reader.get(other.hash, other.bytes).value_or(""), "value");
  std::filesystem::remove_all(dir);
}

TEST(BlobStore, ZeroEntryCapKeepsTheDiskTier) {
  const std::string dir = fresh_dir("psk_blob_disk_only");
  const CacheKey key = key_of("disk-only");
  CacheOptions options;
  options.memory_entries = 0;
  options.disk_dir = dir;
  ResultCache cache(options);
  cache.store(key, "A");
  EXPECT_EQ(cache.lookup(key).value_or(""), "A");
  EXPECT_EQ(cache.lookup(key).value_or(""), "A");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.entries, 0u);
  std::filesystem::remove_all(dir);
}

TEST(BlobStore, StoresSharingADirectorySeeEachOthersEntries) {
  const std::string dir = fresh_dir("psk_blob_shared");
  CacheOptions options;
  options.disk_dir = dir;
  ResultCache first(options);
  ResultCache second(options);  // indexed the directory while it was empty
  first.store(key_of("from-first"), "1");
  EXPECT_EQ(second.lookup(key_of("from-first")).value_or(""), "1");
  EXPECT_EQ(second.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(BlobStore, DiskCapEvictsOldestFiles) {
  const std::string dir = fresh_dir("psk_blob_disk_cap");
  BlobOptions options;
  options.memory_entries = 0;
  options.disk_dir = dir;
  const std::string value(100, 'v');
  options.disk_bytes = 2 * encode_entry(0, {}, value).size();
  BlobStore store(options);
  std::vector<std::uint64_t> hashes;
  for (const char c : {'a', 'b', 'c'}) {
    const std::string bytes = std::string(100, c);
    hashes.push_back(entry_hash({}, bytes));
    store.put(hashes.back(), {}, bytes);
  }
  EXPECT_EQ(store.stats().disk_evicted, 1u);
  EXPECT_EQ(store.stats().disk_entries, 2u);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(hashes[0])));
  EXPECT_FALSE(store.get(hashes[0], {}).has_value());
  EXPECT_EQ(store.get(hashes[2], {}).value_or(""), std::string(100, 'c'));
  // A new store indexes what is left by file name.
  BlobStore reborn(options);
  EXPECT_EQ(reborn.stats().restored, 2u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ stats

TEST(ResultCache, PublishAndKvExposeCounters) {
  ResultCache cache;
  cache.store(key_of("k"), "v");
  cache.lookup(key_of("k"));
  obs::MetricsRegistry metrics;
  cache.publish(metrics);
  EXPECT_EQ(metrics.counter("cache.hit").value(), 1.0);
  EXPECT_EQ(metrics.counter("cache.store").value(), 1.0);
  const std::string kv = stats_kv(cache.stats());
  EXPECT_NE(kv.find("cache.hit=1"), std::string::npos);
  EXPECT_NE(kv.find("cache.lookup=1"), std::string::npos);
  EXPECT_NE(kv.find("cache.hit_rate=1"), std::string::npos);
}

}  // namespace
}  // namespace psk::cache
