#include "guard/salvage.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "archive/archive.h"
#include "sig/io.h"
#include "skeleton/io.h"
#include "util/error.h"

namespace psk::guard {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), "salvage: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ' ')) fields.push_back(field);
  return fields;
}

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

/// The count of a "ranks N" line, or nullopt when it is torn or malformed.
std::optional<std::size_t> ranks_count(const std::string& line) {
  // A file torn mid-"ranks N" can leave just "ranks " (no count field),
  // so check the field count before touching fields[1].
  const auto fields = split_fields(line);
  if (fields.size() != 2) return std::nullopt;
  try {
    return sig::parse_rank_count(fields[1]);
  } catch (const FormatError&) {
    return std::nullopt;
  }
}

/// Lines of a text document plus the byte offset where each line starts.
struct TextDoc {
  std::vector<std::string> lines;
  std::vector<std::size_t> offsets;
  std::size_t total_bytes = 0;
};

TextDoc split_lines(const std::string& text) {
  TextDoc doc;
  doc.total_bytes = text.size();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      if (pos < text.size()) {
        doc.offsets.push_back(pos);
        doc.lines.push_back(text.substr(pos));
      }
      break;
    }
    doc.offsets.push_back(pos);
    doc.lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return doc;
}

// ------------------------------------------------- text skeleton salvage
//
// A skeleton text document is a fixed header followed by a "ranks N" line
// and N rank blocks, each starting with a "rank ..." line.  A rank's loop
// forest is useless half-read, so salvage is rank-granular: re-parse the
// document with the damaged tail of rank blocks removed (and the ranks
// count rewritten), keeping the longest prefix that parses.
std::optional<skeleton::Skeleton> salvage_rank_blocks(const std::string& text,
                                                      SalvageReport& report) {
  const TextDoc doc = split_lines(text);
  std::size_t ranks_line = doc.lines.size();
  for (std::size_t i = 0; i < doc.lines.size(); ++i) {
    if (starts_with(doc.lines[i], "ranks ")) {
      ranks_line = i;
      break;
    }
  }
  if (ranks_line == doc.lines.size()) {
    report.detail = "ranks line missing";
    return std::nullopt;
  }
  const std::optional<std::size_t> parsed = ranks_count(doc.lines[ranks_line]);
  if (!parsed) {
    report.line = ranks_line + 1;
    report.byte_offset = doc.offsets[ranks_line];
    report.detail = "bad ranks count";
    return std::nullopt;
  }
  const std::size_t declared = *parsed;
  report.ranks_expected = declared;
  std::vector<std::size_t> rank_starts;
  for (std::size_t i = ranks_line + 1; i < doc.lines.size(); ++i) {
    if (starts_with(doc.lines[i], "rank ")) rank_starts.push_back(i);
  }
  const std::size_t max_keep = std::min(declared, rank_starts.size());
  for (std::size_t keep = max_keep; keep > 0; --keep) {
    std::ostringstream rebuilt;
    for (std::size_t i = 0; i < ranks_line; ++i) {
      rebuilt << doc.lines[i] << "\n";
    }
    rebuilt << "ranks " << keep << "\n";
    const std::size_t end =
        keep < rank_starts.size() ? rank_starts[keep] : doc.lines.size();
    for (std::size_t i = rank_starts[0]; i < end; ++i) {
      rebuilt << doc.lines[i] << "\n";
    }
    try {
      skeleton::Skeleton value = skeleton::skeleton_from_string(rebuilt.str());
      report.ranks_kept = keep;
      if (keep < declared || !report.detail.empty()) {
        const std::size_t first_dropped =
            keep < rank_starts.size() ? rank_starts[keep] : doc.lines.size();
        report.line = first_dropped + 1;
        report.byte_offset = first_dropped < doc.offsets.size()
                                 ? doc.offsets[first_dropped]
                                 : doc.total_bytes;
      }
      return value;
    } catch (const FormatError&) {
      continue;  // damage reaches into this block too; drop one more rank
    }
  }
  return std::nullopt;
}

// ------------------------------------------------- PSKARCH1 skeleton salvage
//
// Only the container header is checked (archive::read_header): read_frame
// also verifies the payload size and the trailing checksum, so it refuses
// exactly the torn file salvage exists for.  The payload, clamped to the
// bytes present, is then decoded leniently.
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
  return partial.take();
}

/// The lenient path, shared by the file salvor (after the strict loader has
/// refused) and the in-memory entry point (which has no strict fast-path).
std::optional<skeleton::Skeleton> salvage_skeleton_damaged(
    const std::string& bytes, SalvageReport& report) {
  std::optional<skeleton::Skeleton> value =
      archive::looks_like_archive(bytes) ? salvage_archive(bytes, report)
                                         : salvage_rank_blocks(bytes, report);
  report.recovered = value.has_value();
  return value;
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
  if (line > 0) out << "; damage starts at line " << line;
  if (byte_offset > 0) out << " (byte " << byte_offset << ")";
  if (!detail.empty()) out << "; " << detail;
  return out.str();
}

std::optional<skeleton::Skeleton> salvage_skeleton_file(
    const std::string& path, SalvageReport& report) {
  report = SalvageReport{};
  report.path = path;
  const std::string bytes = read_file(path);
  if (const archive::Result<skeleton::Skeleton> strict = archive::load_skeleton(path);
      strict.ok()) {
    report.clean = report.recovered = true;
    report.ranks_expected = report.ranks_kept = strict.value().ranks.size();
    return strict.value();
  } else {
    report.detail = strict.error().message;
  }
  return salvage_skeleton_damaged(bytes, report);
}

std::optional<skeleton::Skeleton> salvage_skeleton_bytes(
    const std::string& bytes, SalvageReport& report) {
  report = SalvageReport{};
  report.path = "<memory>";
  return salvage_skeleton_damaged(bytes, report);
}

}  // namespace psk::guard
