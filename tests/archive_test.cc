// Tests for the unified versioned archive (psk::archive): wire primitives,
// container framing, round-trips for all three payload kinds, the refusal
// of non-archive files, and corruption detection.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/wire.h"
#include "core/framework.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "skeleton/skeleton.h"

namespace psk {
namespace {

trace::Trace sample_trace(const char* app = "MG") {
  core::SkeletonFramework framework;
  return framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
}

sig::Signature sample_signature(const char* app = "MG") {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
  return framework.make_signature(trace, 10.0);
}

skeleton::Skeleton sample_skeleton(const char* app = "MG") {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
  return framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------- wire

TEST(Wire, PrimitivesRoundTrip) {
  std::string bytes;
  archive::put_u8(bytes, 0xAB);
  archive::put_u16(bytes, 0xBEEF);
  archive::put_u32(bytes, 0xDEADBEEFu);
  archive::put_u64(bytes, 0x0123456789ABCDEFull);
  archive::put_i32(bytes, -12345);
  archive::put_i64(bytes, -9876543210LL);
  archive::put_f64(bytes, -0.1);
  archive::put_bool(bytes, true);
  archive::put_string(bytes, "hello\0world");

  archive::Cursor in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -12345);
  EXPECT_EQ(in.i64(), -9876543210LL);
  EXPECT_EQ(in.f64(), -0.1);  // exact: bit-pattern round-trip
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.string(), std::string("hello"));  // literal truncates at NUL
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.at_end());
}

TEST(Wire, CursorFailsStickilyOnTruncation) {
  std::string bytes;
  archive::put_u32(bytes, 7);
  archive::Cursor in(bytes.substr(0, 2));
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_FALSE(in.ok());
  // Every later read keeps failing instead of reading garbage.
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_EQ(in.string(), "");
  EXPECT_FALSE(in.ok());
}

TEST(Wire, FingerprintIsStableAndHexFixedWidth) {
  // FNV-1a is stable by contract: pin a known vector so an accidental
  // algorithm change (which would orphan every cache entry) fails loudly.
  EXPECT_EQ(archive::fingerprint64(""), 14695981039346656037ull);
  EXPECT_EQ(archive::fingerprint_hex(0x1ull).size(), 16u);
  EXPECT_EQ(archive::fingerprint_hex(0xABCDull),
            std::string("000000000000abcd"));
}

// ------------------------------------------------------------------ frame

TEST(Archive, FrameRoundTrip) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kSignature, 3, "payload");
  const auto frame = archive::read_frame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().kind, archive::PayloadKind::kSignature);
  EXPECT_EQ(frame.value().payload_version, 3u);
  EXPECT_EQ(frame.value().payload, "payload");
  EXPECT_TRUE(archive::looks_like_archive(bytes));
  EXPECT_FALSE(archive::looks_like_archive("PSKTRB01..."));
}

TEST(Archive, FutureContainerVersionRejected) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "p");
  bytes[8] = '\xFF';  // container version field (offset 8, LE u16)
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kBadVersion);
}

TEST(Archive, PayloadCorruptionFailsChecksum) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes[26] = static_cast<char>(bytes[26] ^ 0x01);  // inside the payload
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kCorrupt);
}

// ------------------------------------------------------------ round-trips

TEST(Archive, TraceRoundTrip) {
  const trace::Trace original = sample_trace();
  const std::string path = temp_path("psk_archive.trace");
  archive::save(path, original).or_throw();
  const trace::Trace loaded = archive::load_trace(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.rank_count(), original.rank_count());
  EXPECT_EQ(loaded.event_count(), original.event_count());
  EXPECT_EQ(loaded.elapsed(), original.elapsed());  // doubles: exact
  std::remove(path.c_str());
}

TEST(Archive, SignatureRoundTrip) {
  const sig::Signature original = sample_signature("SP");
  const std::string path = temp_path("psk_archive.sig");
  archive::save(path, original).or_throw();
  const sig::Signature loaded = archive::load_signature(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.threshold, original.threshold);
  EXPECT_EQ(loaded.compression_ratio, original.compression_ratio);
  ASSERT_EQ(loaded.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < loaded.ranks.size(); ++r) {
    EXPECT_EQ(loaded.ranks[r].rank, original.ranks[r].rank);
    EXPECT_EQ(loaded.ranks[r].total_time, original.ranks[r].total_time);
    EXPECT_EQ(loaded.ranks[r].roots, original.ranks[r].roots);
  }
  std::remove(path.c_str());
}

TEST(Archive, SkeletonRoundTrip) {
  const skeleton::Skeleton original = sample_skeleton("CG");
  const std::string path = temp_path("psk_archive.skel");
  archive::save(path, original).or_throw();
  const skeleton::Skeleton loaded = archive::load_skeleton(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.scaling_factor, original.scaling_factor);
  EXPECT_EQ(loaded.intended_time, original.intended_time);
  EXPECT_EQ(loaded.min_good_time, original.min_good_time);
  EXPECT_EQ(loaded.good, original.good);
  ASSERT_EQ(loaded.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < loaded.ranks.size(); ++r) {
    EXPECT_EQ(loaded.ranks[r].roots, original.ranks[r].roots);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------ non-archive files

// PSKARCH1 is the only file format: a file in one of the retired text
// formats is refused by every loader with kBadMagic, and the error names it.
void expect_text_file_refused(const char* name, const char* text) {
  const std::string path = temp_path(name);
  spit(path, text);
  const archive::Error errors[] = {archive::load_trace(path).error(),
                                   archive::load_signature(path).error(),
                                   archive::load_skeleton(path).error()};
  for (const archive::Error& error : errors) {
    EXPECT_EQ(error.code, archive::ErrorCode::kBadMagic) << name;
    EXPECT_NE(error.message.find(path), std::string::npos) << error.render();
    EXPECT_NE(error.message.find("no longer read"), std::string::npos)
        << error.render();
  }
  std::remove(path.c_str());
}

TEST(Archive, LegacyTextTraceIsRefused) {
  expect_text_file_refused("psk_text.trace", "psk-trace 1\napp x\nranks 0\n");
}

TEST(Archive, LegacySignatureIsRefused) {
  expect_text_file_refused(
      "psk_text.sig",
      "psk-signature 1\napp x\nthreshold 0\nratio 1\nranks 0\n");
}

TEST(Archive, LegacySkeletonIsRefused) {
  expect_text_file_refused("psk_text.skel",
                           "psk-skeleton 1\napp x\nk 1\nintended 1\n"
                           "min_good 1\ngood 1\nranks 0\n");
}

TEST(Archive, LegacyBinaryTraceIsRefused) {
  // The host-endian PSKTRB01 format is gone too: loading such a file is a
  // typed error naming it.
  const std::string path = temp_path("psk_legacy_bin.trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << "PSKTRB01" << std::string(64, '\x01');
  }
  const auto loaded = archive::load_trace(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kBadMagic);
  EXPECT_NE(loaded.error().message.find(path), std::string::npos)
      << loaded.error().render();
  std::remove(path.c_str());
}

// ------------------------------------------------------------ error paths

TEST(Archive, KindMismatchIsTypedError) {
  const sig::Signature signature = sample_signature();
  const std::string path = temp_path("psk_kind.sig");
  archive::save(path, signature).or_throw();
  const auto as_trace = archive::load_trace(path);
  ASSERT_FALSE(as_trace.ok());
  EXPECT_EQ(as_trace.error().code, archive::ErrorCode::kBadKind);
  std::remove(path.c_str());
}

TEST(Archive, MissingFileIsIoError) {
  const auto missing = archive::load_trace(temp_path("psk_no_such_file"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, archive::ErrorCode::kIo);
}

TEST(Archive, GarbageFileIsTypedErrorNotThrow) {
  const std::string path = temp_path("psk_garbage");
  spit(path, "not an archive\n");
  const auto loaded = archive::load_trace(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(Archive, CorruptedArchiveFileReportsCorrupt) {
  const trace::Trace original = sample_trace();
  const std::string path = temp_path("psk_corrupt.trace");
  archive::save(path, original).or_throw();
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(path, bytes);
  const auto loaded = archive::load_trace(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kCorrupt);
  std::remove(path.c_str());
}

// ------------------------------------------------- hostile declared sizes
//
// Declared sizes and counts are validated against the bytes actually
// present *before* any decode loop or allocation, and report kTruncated
// (distinct from kCorrupt: the data present may be fine, the rest is gone).

TEST(Archive, TruncatedFrameReportsTruncated) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes.resize(bytes.size() - 10);  // torn mid-payload
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kTruncated);
}

TEST(Archive, TrailingBytesReportCorrupt) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes.push_back('\0');
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kCorrupt);
}

TEST(Archive, HostileRankCountFailsFastAsTruncated) {
  // A tiny payload declaring 60000 ranks (within the plausibility cap) must
  // fail at the count field, not after a long failing decode loop.
  std::string payload;
  archive::put_string(payload, "app");
  archive::put_u32(payload, 60000);
  const auto trace = archive::decode_trace(payload, 1);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, archive::ErrorCode::kTruncated);
  EXPECT_NE(trace.error().message.find("rank count"), std::string::npos);
}

TEST(Archive, HostileEventCountFailsFastAsTruncated) {
  std::string payload;
  archive::put_string(payload, "app");
  archive::put_u32(payload, 1);                      // one rank
  archive::put_i32(payload, 0);                      // rank id
  archive::put_f64(payload, 1.0);                    // total_time
  archive::put_f64(payload, 0.0);                    // final_compute
  archive::put_u64(payload, std::uint64_t{1} << 31); // events, bytes absent
  const auto trace = archive::decode_trace(payload, 1);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, archive::ErrorCode::kTruncated);
}

TEST(Archive, OrThrowBridgesToFormatError) {
  EXPECT_THROW(
      archive::load_trace(temp_path("psk_no_such_file")).or_throw(),
      psk::FormatError);
}

}  // namespace
}  // namespace psk
