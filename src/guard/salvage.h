// Recovery of truncated or torn skeletons.
//
// The skeleton is the artifact that is shipped to a target system, so it is
// the one that can arrive damaged: as a `psk run --skeleton` file or as a
// `pskd` upload.  (Traces and signatures are intermediate values that stay
// in memory.)  A crashed writer, a full disk, or a partial copy leaves a
// PSKARCH1 container whose prefix is perfectly good data.  The strict
// loaders reject it outright; salvage_* instead keeps every whole rank up to
// the first damage and reports exactly what was kept and the byte offset
// where the damage starts, so `--validate=salvage` can proceed on the
// recovered prefix while telling the user what was lost.  Bytes that are not
// a PSKARCH1 skeleton at all are unrecoverable.
#pragma once

#include <optional>
#include <string>

#include "skeleton/skeleton.h"

namespace psk::guard {

/// What a salvage pass recovered from one file.
struct SalvageReport {
  std::string path;
  /// True when a usable value was produced (possibly the whole file).
  bool recovered = false;
  /// True when the file was intact and no salvage was needed.
  bool clean = false;
  /// Rank accounting: declared vs kept.
  std::uint64_t ranks_expected = 0;
  std::uint64_t ranks_kept = 0;
  /// File offset of the first byte that could not be used (0 when the
  /// file was clean or its container or skeleton header is unusable).
  std::size_t byte_offset = 0;
  /// Why salvage stopped, empty when clean.
  std::string detail;

  /// One-paragraph human-readable rendering.
  std::string render() const;
};

/// Reads the file once (archive::read_file) and first decodes those bytes
/// strictly; on success the report is `clean`.  On a format error it
/// recovers the longest verifiable prefix of the same bytes.  Returns
/// nullopt (with report.recovered == false) when nothing usable survives --
/// e.g. the header itself is gone.  I/O errors (missing file) throw
/// FormatError, as there is nothing to salvage.
std::optional<skeleton::Skeleton> salvage_skeleton_file(
    const std::string& path, SalvageReport& report);

/// Salvage directly from an in-memory buffer (a `pskd` upload).  It skips
/// the strict fast-path (so an intact buffer is reported `recovered`, never
/// `clean`) and never touches the filesystem; the fuzz harnesses use it to
/// drive the lenient decoder with arbitrary bytes.  Nullopt as above.
std::optional<skeleton::Skeleton> salvage_skeleton_bytes(
    const std::string& bytes, SalvageReport& report);

}  // namespace psk::guard
