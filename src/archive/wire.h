// Wire-level primitives of the psk versioned-archive format.
//
// Everything the archive writes is explicit little-endian, regardless of
// host byte order, so a file produced on one machine decodes identically on
// any other -- and so the encoded bytes of a value are *canonical*: equal
// values always produce equal bytes.  That canonical property is what the
// content-addressed result cache (psk::cache) hashes, which is why these
// primitives live in their own dependency-free layer below both the archive
// container and the cache.
//
// Error handling is typed: readers return Result<T> / Status instead of the
// historical mix of bools, exceptions and silent defaults.  Callers that
// prefer exceptions bridge with or_throw(), which raises FormatError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.h"

namespace psk::archive {

// ---------------------------------------------------------------- errors

enum class ErrorCode {
  kIo,           // file missing / unreadable / unwritable
  kBadMagic,     // not a psk archive (no PSKARCH1 magic)
  kBadVersion,   // container or payload version newer than this reader
  kBadKind,      // archive holds a different payload kind than requested
  kCorrupt,      // framing, checksum or field-level decode failure
  kTruncated,    // declared sizes/counts exceed the bytes actually present
};

const char* error_code_name(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kCorrupt;
  std::string message;

  std::string render() const {
    return std::string(error_code_name(code)) + ": " + message;
  }
};

/// Outcome of a write-style operation: success, or a typed Error.
class Status {
 public:
  Status() = default;  // success
  Status(Error error) : error_(std::move(error)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }
  const Error& error() const { return *error_; }

  /// Throws FormatError when not ok (the exception bridge).
  void or_throw() const {
    if (!ok()) throw FormatError(error_->render());
  }

 private:
  std::optional<Error> error_;
};

/// Outcome of a read-style operation: a value, or a typed Error.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}   // NOLINT(runtime/explicit)
  Result(Error error) : error_(std::move(error)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  /// Moves the value out (precondition: ok()).
  T take() { return std::move(*value_); }
  const Error& error() const { return *error_; }

  /// Returns the value or throws FormatError (the exception bridge).
  T or_throw() && {
    if (!ok()) throw FormatError(error_->render());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

// ---------------------------------------------------------------- writing

void put_u8(std::string& out, std::uint8_t value);
void put_u16(std::string& out, std::uint16_t value);
void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
void put_i32(std::string& out, std::int32_t value);
void put_i64(std::string& out, std::int64_t value);
/// Doubles travel as their IEEE-754 bit pattern: exact round-trip, and
/// bit-identical doubles encode to identical bytes (the cache relies on it).
void put_f64(std::string& out, double value);
void put_bool(std::string& out, bool value);
/// Length-prefixed (u32) byte string.
void put_string(std::string& out, std::string_view text);

// ---------------------------------------------------------------- reading

/// Sticky-failure reader over a byte span.  Getters return a decoded value
/// (or 0/empty once failed); check ok()/error() after a decode batch, like
/// stream extraction.  Out-of-bounds reads fail instead of throwing.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string string();

  /// Marks the cursor failed with `what` (for field-level validation).
  /// Out-of-bounds reads record ErrorCode::kTruncated; semantic failures
  /// default to kCorrupt.
  void fail(const std::string& what, ErrorCode code = ErrorCode::kCorrupt);

  /// Fails with kTruncated unless `count` units of at least
  /// `min_unit_bytes` each can still fit in the remaining input.  Call it
  /// on every declared count *before* the decode loop: a hostile count
  /// field then costs one multiply, not a long failing decode.
  /// Returns ok().
  bool check_count(std::uint64_t count, std::size_t min_unit_bytes,
                   const char* what);

  bool ok() const { return !failed_; }
  bool at_end() const { return failed_ || pos_ == data_.size(); }
  std::size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }
  /// The failure as a typed archive Error.
  Error error() const { return Error{code_, what_}; }

 private:
  const unsigned char* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  ErrorCode code_ = ErrorCode::kCorrupt;
  std::string what_;
};

// ---------------------------------------------------------------- hashing

/// 64-bit FNV-1a over a byte span: the archive's payload checksum and the
/// cache's content hash.  Stable across platforms and releases by contract.
std::uint64_t fingerprint64(std::string_view bytes);

/// Fixed-width lowercase hex rendering of a fingerprint (16 chars).
std::string fingerprint_hex(std::uint64_t hash);
/// Inverse of fingerprint_hex: nullopt unless `text` is 16 lowercase hex
/// digits.
std::optional<std::uint64_t> parse_fingerprint_hex(std::string_view text);

// ------------------------------------------------------------------ files

/// Reads a whole file; kIo when it cannot be opened or read.
Result<std::string> read_file(const std::string& path);

/// Writes `bytes` to `path` through `<path>.tmp` and a rename, so a crash
/// mid-write never leaves a torn file at `path`.
Status write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace psk::archive
