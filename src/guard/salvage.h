// Recovery of truncated or torn trace / signature / skeleton data.
//
// A crashed writer, a full disk, or a partial copy leaves bytes whose
// prefix is perfectly good data.  The strict loaders reject them outright;
// salvage_* instead recovers everything up to the last verifiable unit --
// whole events for text traces, whole events/ranks for archive payloads --
// and reports exactly what was kept and where the damage starts (line
// number for text, byte offset for binary), so `--validate=salvage` can
// proceed on the recovered prefix while telling the user what was lost.
//
// File salvage exists for skeletons only (`psk run --validate=salvage`);
// traces, signatures and uploaded skeletons are salvaged from in-memory
// bytes.
#pragma once

#include <optional>
#include <string>

#include "sig/signature.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"

namespace psk::guard {

/// What a salvage pass recovered from one file.
struct SalvageReport {
  std::string path;
  /// True when a usable value was produced (possibly the whole file).
  bool recovered = false;
  /// True when the file was intact and no salvage was needed.
  bool clean = false;
  /// Unit accounting: declared vs kept.  Events are tracked for traces
  /// only; ranks for every kind.
  std::uint64_t ranks_expected = 0;
  std::uint64_t ranks_kept = 0;
  std::uint64_t events_expected = 0;
  std::uint64_t events_kept = 0;
  /// Text inputs: 1-based line number of the first unusable line (0 when
  /// not applicable or the file was clean).
  std::size_t line = 0;
  /// Binary inputs: file offset of the first byte that could not be used
  /// (0 when not applicable or the file was clean).
  std::size_t byte_offset = 0;
  /// Why salvage stopped, empty when clean.
  std::string detail;

  /// One-paragraph human-readable rendering.
  std::string render() const;
};

/// First tries the strict loader; on success the report is `clean`.  On a
/// format error it recovers the longest verifiable prefix.  Returns nullopt
/// (with report.recovered == false) when nothing usable survives -- e.g. the
/// header itself is gone.  I/O errors (missing file) still throw, as there
/// is nothing to salvage.
std::optional<skeleton::Skeleton> salvage_skeleton_file(
    const std::string& path, SalvageReport& report);

/// Salvage directly from an in-memory buffer.  These skip the strict
/// fast-path (so an intact buffer is reported `recovered`, never `clean`)
/// and never touch the filesystem; the fuzz harnesses use them to drive
/// the lenient decoders with arbitrary bytes.  Nullopt as above.
std::optional<trace::Trace> salvage_trace_bytes(const std::string& bytes,
                                                SalvageReport& report);
std::optional<sig::Signature> salvage_signature_bytes(const std::string& bytes,
                                                      SalvageReport& report);
std::optional<skeleton::Skeleton> salvage_skeleton_bytes(
    const std::string& bytes, SalvageReport& report);

}  // namespace psk::guard
