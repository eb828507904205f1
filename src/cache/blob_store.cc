#include "cache/blob_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "obs/metrics.h"
#include "util/log.h"

namespace psk::cache {

namespace {

using archive::Error;
using archive::ErrorCode;

constexpr std::string_view kFileExtension = ".pskb";
constexpr std::size_t kChecksumSize = 8;
// Magic, hash, key size, value size and checksum.
constexpr std::size_t kFramingSize = kEntryMagic.size() + 8 + 4 + 4 + 8;

}  // namespace

// ------------------------------------------------------------ envelope

std::uint64_t entry_hash(std::string_view key, std::string_view value) {
  return archive::fingerprint64(key.empty() ? value : key);
}

std::string encode_entry(std::uint64_t hash, std::string_view key,
                         std::string_view value) {
  std::string out;
  out.reserve(kFramingSize + key.size() + value.size());
  out.append(kEntryMagic);
  archive::put_u64(out, hash);
  archive::put_string(out, key);
  archive::put_string(out, value);
  archive::put_u64(out, archive::fingerprint64(out));
  return out;
}

archive::Result<BlobEntry> decode_entry(std::string_view bytes) {
  if (bytes.substr(0, kEntryMagic.size()) != kEntryMagic) {
    return Error{ErrorCode::kBadMagic, "not a PSKB1 blob entry"};
  }
  if (bytes.size() < kFramingSize) {
    return Error{ErrorCode::kTruncated,
                 "blob entry of " + std::to_string(bytes.size()) +
                     " byte(s) is shorter than its framing"};
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumSize);
  if (archive::Cursor(bytes.substr(body.size())).u64() !=
      archive::fingerprint64(body)) {
    return Error{ErrorCode::kCorrupt, "blob entry checksum mismatch"};
  }
  // Cursor::string checks each declared size against the bytes left before
  // it copies anything.
  archive::Cursor in(body.substr(kEntryMagic.size()));
  BlobEntry entry;
  entry.hash = in.u64();
  entry.key = in.string();
  entry.value = in.string();
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt,
                 std::to_string(in.remaining()) +
                     " byte(s) after the blob entry's value"};
  }
  if (entry.hash != entry_hash(entry.key, entry.value)) {
    return Error{ErrorCode::kCorrupt,
                 "blob entry hash does not match what it names"};
  }
  return entry;
}

// --------------------------------------------------------------- stats

void publish_stats(obs::MetricsRegistry& metrics, const BlobStats& stats,
                   std::span<const StatName> names) {
  for (const StatName& stat : names) {
    metrics.counter(stat.name).add(static_cast<double>(stats.*stat.field));
  }
}

// --------------------------------------------------------------- store

BlobStore::BlobStore(BlobOptions options) : options_(std::move(options)) {
  if (options_.disk_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.disk_dir, ec);
  if (ec) {
    util::log_warn() << "blob store: cannot create " << options_.disk_dir
                     << " (" << ec.message() << "); running memory-only";
    options_.disk_dir.clear();
    return;
  }
  // Index by file name and size alone: the cap needs nothing more, and
  // every entry is verified when it is read.  Sorted, so the eviction order
  // does not depend on readdir order.
  std::vector<std::filesystem::path> files;
  for (const auto& file :
       std::filesystem::directory_iterator(options_.disk_dir, ec)) {
    if (file.path().extension() == kFileExtension) files.push_back(file.path());
  }
  std::sort(files.begin(), files.end());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& path : files) {
    const std::optional<std::uint64_t> hash =
        archive::parse_fingerprint_hex(path.stem().string());
    std::error_code size_ec;
    const std::uintmax_t size = std::filesystem::file_size(path, size_ec);
    if (!hash || size_ec || disk_.count(*hash) != 0) continue;
    index_locked(*hash, size);
    ++stats_.restored;
  }
}

std::string BlobStore::entry_path(std::uint64_t hash) const {
  if (options_.disk_dir.empty()) return "";
  return options_.disk_dir + "/" + archive::fingerprint_hex(hash) +
         std::string(kFileExtension);
}

std::optional<std::string> BlobStore::get(std::uint64_t hash,
                                          std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  if (const auto it = memory_.find(hash); it != memory_.end()) {
    if (it->second->key == key) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->value;
    }
    ++stats_.verify_failures;  // a 64-bit collision: never a wrong value
  } else if (std::optional<std::string> value = read_disk_locked(hash, key)) {
    ++stats_.disk_hits;
    remember_locked(hash, key, *value);
    return value;
  }
  ++stats_.misses;
  return std::nullopt;
}

void BlobStore::put(std::uint64_t hash, std::string_view key,
                    std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = memory_.find(hash); it != memory_.end()) {
    if (it->second->key == key) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.refreshed;
      return;
    }
    erase_locked(it->second);  // a colliding key takes the slot over
  }
  ++stats_.inserted;
  write_disk_locked(hash, key, value);
  remember_locked(hash, key, std::move(value));
}

BlobStats BlobStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BlobStore::remember_locked(std::uint64_t hash, std::string_view key,
                                std::string value) {
  const std::size_t size = key.size() + value.size();
  if (options_.memory_entries == 0 || size > options_.memory_bytes) return;
  lru_.push_front(Entry{hash, std::string(key), std::move(value)});
  memory_.emplace(hash, lru_.begin());
  stats_.bytes += size;
  while (memory_.size() > options_.memory_entries ||
         stats_.bytes > options_.memory_bytes) {
    erase_locked(std::prev(lru_.end()));
    ++stats_.evicted;
  }
  stats_.entries = memory_.size();
}

void BlobStore::erase_locked(Lru::iterator entry) {
  stats_.bytes -= entry->key.size() + entry->value.size();
  memory_.erase(entry->hash);
  lru_.erase(entry);
  stats_.entries = memory_.size();
}

std::optional<std::string> BlobStore::read_disk_locked(std::uint64_t hash,
                                                       std::string_view key) {
  if (options_.disk_dir.empty()) return std::nullopt;
  const std::string path = entry_path(hash);
  archive::Result<std::string> bytes = archive::read_file(path);
  if (!bytes.ok()) {  // no such file: a plain miss
    forget_disk_locked(hash);
    return std::nullopt;
  }
  archive::Result<BlobEntry> entry = decode_entry(bytes.value());
  std::string problem;
  if (!entry.ok()) {
    problem = entry.error().render();
  } else if (entry.value().hash != hash) {
    problem = "filed under the wrong hash";
  } else if (entry.value().key != key) {
    problem = "echoes a different key";
  } else {
    return std::move(entry.value().value);
  }
  // Keep the damaged bytes for triage under a name nothing reads; if even
  // the rename fails, remove the file so it cannot be read again.
  if (std::rename(path.c_str(), (path + ".quar").c_str()) != 0) {
    std::remove(path.c_str());
  }
  forget_disk_locked(hash);
  ++stats_.verify_failures;
  util::log_warn() << "blob store: quarantined " << path << " (" << problem
                   << ")";
  return std::nullopt;
}

void BlobStore::write_disk_locked(std::uint64_t hash, std::string_view key,
                                  std::string_view value) {
  if (options_.disk_dir.empty() || disk_.count(hash) != 0) return;
  const WriteFault fault =
      options_.write_fault ? options_.write_fault() : WriteFault::kNone;
  archive::Status written =
      Error{ErrorCode::kIo, "injected write failure"};
  std::string entry;
  if (fault != WriteFault::kFail) {
    entry = encode_entry(hash, key, value);
    // An injected torn write: the checksum catches it at read time.
    if (fault == WriteFault::kCorrupt) entry[entry.size() / 2] ^= 0x40;
    written = archive::write_file_atomic(entry_path(hash), entry);
  }
  if (!written.ok()) {
    if (++stats_.disk_write_failures == 1) {
      util::log_warn() << "blob store: " << written.error().render()
                       << "; the entry stays memory-only";
    }
    return;
  }
  index_locked(hash, entry.size());
  while (stats_.disk_bytes > options_.disk_bytes) {
    const std::uint64_t victim = disk_order_.front().hash;
    forget_disk_locked(victim);
    std::remove(entry_path(victim).c_str());
    ++stats_.disk_evicted;
  }
}

void BlobStore::index_locked(std::uint64_t hash, std::uint64_t size) {
  disk_order_.push_back(DiskFile{hash, size});
  disk_.emplace(hash, std::prev(disk_order_.end()));
  stats_.disk_bytes += size;
  stats_.disk_entries = disk_.size();
}

void BlobStore::forget_disk_locked(std::uint64_t hash) {
  const auto it = disk_.find(hash);
  if (it == disk_.end()) return;
  stats_.disk_bytes -= it->second->size;
  disk_order_.erase(it->second);
  disk_.erase(it);
  stats_.disk_entries = disk_.size();
}

}  // namespace psk::cache
