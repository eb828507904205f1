#include "guard/salvage.h"

#include <sstream>
#include <string_view>

#include "archive/archive.h"
#include "util/error.h"

namespace psk::guard {

namespace {

// Only the container header is checked (archive::read_header): read_frame
// also verifies the payload size and the trailing checksum, so it refuses
// exactly the torn file salvage exists for.  The payload, clamped to the
// bytes present, is then decoded leniently, keeping every whole rank.
std::optional<skeleton::Skeleton> salvage_archive(std::string_view bytes,
                                                  SalvageReport& report) {
  const archive::Result<archive::Header> header = archive::read_header(bytes);
  if (!header.ok()) {
    report.detail = header.error().message;
    return std::nullopt;
  }
  if (header.value().kind != archive::PayloadKind::kSkeleton) {
    report.detail = std::string("archive holds a ") +
                    archive::payload_kind_name(header.value().kind) +
                    ", not a skeleton";
    return std::nullopt;
  }
  archive::PrefixStats stats;
  archive::Result<skeleton::Skeleton> partial = archive::decode_skeleton_prefix(
      bytes.substr(archive::kHeaderSize, header.value().payload_size),
      header.value().payload_version, stats);
  if (!partial.ok()) {
    report.detail = partial.error().message;
    return std::nullopt;
  }
  report.ranks_expected = stats.ranks_expected;
  report.ranks_kept = stats.ranks_kept;
  report.byte_offset = archive::kHeaderSize + stats.bytes_consumed;
  if (!stats.detail.empty()) report.detail = stats.detail;
  if (stats.ranks_kept == 0) return std::nullopt;
  report.recovered = true;
  return partial.take();
}

std::string render_units(std::uint64_t kept, std::uint64_t expected) {
  return std::to_string(kept) + " of " + std::to_string(expected) +
         " rank(s)";
}

}  // namespace

std::string SalvageReport::render() const {
  std::ostringstream out;
  out << path << ": ";
  if (clean) {
    out << "intact (" << render_units(ranks_kept, ranks_expected) << ")";
    return out.str();
  }
  if (!recovered) {
    out << "unrecoverable";
    if (!detail.empty()) out << " (" << detail << ")";
    return out.str();
  }
  out << "salvaged " << render_units(ranks_kept, ranks_expected);
  if (byte_offset > 0) out << "; damage starts at byte " << byte_offset;
  if (!detail.empty()) out << "; " << detail;
  return out.str();
}

std::optional<skeleton::Skeleton> salvage_skeleton_file(
    const std::string& path, SalvageReport& report) {
  report = SalvageReport{};
  report.path = path;
  const archive::Result<std::string> bytes = archive::read_file(path);
  if (!bytes.ok()) throw FormatError(bytes.error().render());
  // The strict decode and the salvage below read the same bytes, so the
  // report always describes what was loaded.
  const archive::Result<archive::Frame> frame =
      archive::read_frame(bytes.value());
  if (!frame.ok()) {
    report.detail = frame.error().message;
  } else if (frame.value().kind == archive::PayloadKind::kSkeleton) {
    archive::Result<skeleton::Skeleton> strict = archive::decode_skeleton(
        frame.value().payload, frame.value().payload_version);
    if (strict.ok()) {
      report.clean = report.recovered = true;
      report.ranks_expected = report.ranks_kept = strict.value().ranks.size();
      return strict.take();
    }
    report.detail = strict.error().message;
  }
  return salvage_archive(bytes.value(), report);
}

std::optional<skeleton::Skeleton> salvage_skeleton_bytes(
    const std::string& bytes, SalvageReport& report) {
  report = SalvageReport{};
  report.path = "<memory>";
  return salvage_archive(bytes, report);
}

}  // namespace psk::guard
