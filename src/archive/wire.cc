#include "archive/wire.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace psk::archive {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo: return "io error";
    case ErrorCode::kBadMagic: return "bad magic";
    case ErrorCode::kBadVersion: return "unsupported version";
    case ErrorCode::kBadKind: return "wrong payload kind";
    case ErrorCode::kCorrupt: return "corrupt archive";
    case ErrorCode::kTruncated: return "truncated archive";
  }
  return "unknown error";
}

namespace {

/// Appends `value`'s low `n` bytes LSB-first (explicit little-endian).
void put_le(std::string& out, std::uint64_t value, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

}  // namespace

void put_u8(std::string& out, std::uint8_t value) { put_le(out, value, 1); }
void put_u16(std::string& out, std::uint16_t value) { put_le(out, value, 2); }
void put_u32(std::string& out, std::uint32_t value) { put_le(out, value, 4); }
void put_u64(std::string& out, std::uint64_t value) { put_le(out, value, 8); }

void put_i32(std::string& out, std::int32_t value) {
  put_le(out, static_cast<std::uint32_t>(value), 4);
}

void put_i64(std::string& out, std::int64_t value) {
  put_le(out, static_cast<std::uint64_t>(value), 8);
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_bool(std::string& out, bool value) {
  put_u8(out, value ? 1 : 0);
}

void put_string(std::string& out, std::string_view text) {
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text.data(), text.size());
}

const unsigned char* Cursor::take(std::size_t n) {
  if (failed_) return nullptr;
  if (data_.size() - pos_ < n) {
    fail("truncated input (wanted " + std::to_string(n) + " byte(s) at offset " +
             std::to_string(pos_) + ")",
         ErrorCode::kTruncated);
    return nullptr;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

namespace {
std::uint64_t get_le(const unsigned char* p, int n) {
  std::uint64_t value = 0;
  for (int i = 0; i < n; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}
}  // namespace

std::uint8_t Cursor::u8() {
  const unsigned char* p = take(1);
  return p ? static_cast<std::uint8_t>(get_le(p, 1)) : 0;
}

std::uint16_t Cursor::u16() {
  const unsigned char* p = take(2);
  return p ? static_cast<std::uint16_t>(get_le(p, 2)) : 0;
}

std::uint32_t Cursor::u32() {
  const unsigned char* p = take(4);
  return p ? static_cast<std::uint32_t>(get_le(p, 4)) : 0;
}

std::uint64_t Cursor::u64() {
  const unsigned char* p = take(8);
  return p ? get_le(p, 8) : 0;
}

std::int32_t Cursor::i32() {
  return static_cast<std::int32_t>(u32());
}

std::int64_t Cursor::i64() {
  return static_cast<std::int64_t>(u64());
}

double Cursor::f64() {
  return std::bit_cast<double>(u64());
}

bool Cursor::boolean() {
  return u8() != 0;
}

std::string Cursor::string() {
  const std::uint32_t size = u32();
  if (failed_) return {};
  // Declared length vs bytes actually present, checked before the copy: a
  // hostile length field cannot trigger a multi-GB allocation.
  if (data_.size() - pos_ < size) {
    fail("truncated string (wanted " + std::to_string(size) + " byte(s))",
         ErrorCode::kTruncated);
    return {};
  }
  std::string text(data_.substr(pos_, size));
  pos_ += size;
  return text;
}

void Cursor::fail(const std::string& what, ErrorCode code) {
  if (!failed_) {
    failed_ = true;
    code_ = code;
    what_ = what;
  }
}

bool Cursor::check_count(std::uint64_t count, std::size_t min_unit_bytes,
                         const char* what) {
  if (failed_) return false;
  // Division, not multiplication: count * min_unit_bytes could overflow.
  if (min_unit_bytes > 0 &&
      count > remaining() / static_cast<std::uint64_t>(min_unit_bytes)) {
    fail(std::string(what) + " count " + std::to_string(count) +
             " exceeds the " + std::to_string(remaining()) +
             " byte(s) of remaining input",
         ErrorCode::kTruncated);
  }
  return !failed_;
}

std::uint64_t fingerprint64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string fingerprint_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> parse_fingerprint_hex(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t hash = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return std::nullopt;
    hash = (hash << 4) | static_cast<std::uint64_t>(digit);
  }
  return hash;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kIo, "cannot open " + path + " for reading"};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Error{ErrorCode::kIo, "read failure on " + path};
  return std::move(buffer).str();
}

Status write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const auto io_error = [](const std::string& what) {
    return Error{ErrorCode::kIo, what + " (" + std::strerror(errno) + ")"};
  };
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return io_error("cannot open " + tmp + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Error error = io_error(out ? "cannot rename " + tmp + " to " + path
                                     : "write failure on " + tmp);
    std::remove(tmp.c_str());
    return error;
  }
  return {};
}

}  // namespace psk::archive
