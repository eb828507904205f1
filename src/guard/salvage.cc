#include "guard/salvage.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "archive/archive.h"
#include "sig/io.h"
#include "skeleton/io.h"
#include "trace/io.h"
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

// Mirror the caps in sig/io.cc and archive/codec.cc.
constexpr std::uint64_t kMaxRanks = 1u << 16;
constexpr std::uint64_t kMaxEvents = 1ull << 32;

// Parses a declared count field ("ranks N", per-rank event counts).
// stoull alone is too permissive for salvage: it wraps negatives ("-1"
// becomes 2^64-1) and stops at the first non-digit ("12garbage" parses as
// 12), so require an exact round-trip and a plausible magnitude.
std::optional<std::uint64_t> parse_count(const std::string& field,
                                         std::uint64_t max) {
  if (field.empty() || !std::isdigit(static_cast<unsigned char>(field[0]))) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stoull(field, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != field.size() || value > max) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_ranks_count(const std::string& field) {
  return parse_count(field, kMaxRanks);
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

// ------------------------------------------------------- archive salvage
//
// The container header is parsed by hand (24 bytes: magic, u16 container
// version, u16 kind, u32 payload version, u64 payload size) because
// archive::read_frame rejects any file whose trailing checksum is damaged
// -- which is exactly the torn file salvage exists for.  The payload is
// then decoded leniently with the codec's prefix decoders.

struct ArchiveHeader {
  bool usable = false;
  archive::PayloadKind kind = archive::PayloadKind::kTrace;
  std::uint32_t payload_version = 0;
  std::string_view payload;  // declared size clamped to available bytes
  std::string detail;        // why the header is unusable
};

std::uint64_t read_le(std::string_view bytes, std::size_t offset,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

ArchiveHeader probe_archive(std::string_view bytes) {
  constexpr std::size_t kHeaderSize = 24;
  ArchiveHeader header;
  if (bytes.size() < kHeaderSize) {
    header.detail = "archive header truncated";
    return header;
  }
  const auto container_version =
      static_cast<std::uint16_t>(read_le(bytes, 8, 2));
  if (container_version != archive::kContainerVersion) {
    header.detail = "unknown container version " +
                    std::to_string(container_version);
    return header;
  }
  const auto raw_kind = static_cast<std::uint16_t>(read_le(bytes, 10, 2));
  if (raw_kind < 1 || raw_kind > 3) {
    header.detail = "unknown payload kind " + std::to_string(raw_kind);
    return header;
  }
  header.kind = static_cast<archive::PayloadKind>(raw_kind);
  header.payload_version = static_cast<std::uint32_t>(read_le(bytes, 12, 4));
  const std::uint64_t declared = read_le(bytes, 16, 8);
  const std::size_t available = bytes.size() - kHeaderSize;
  const std::size_t size =
      declared < available ? static_cast<std::size_t>(declared) : available;
  header.payload = bytes.substr(kHeaderSize, size);
  header.usable = true;
  return header;
}

void apply_prefix_stats(const archive::PrefixStats& stats,
                        SalvageReport& report) {
  constexpr std::size_t kHeaderSize = 24;
  report.ranks_expected = stats.ranks_expected;
  report.ranks_kept = stats.ranks_kept;
  report.events_expected = stats.events_expected;
  report.events_kept = stats.events_kept;
  report.byte_offset = kHeaderSize + stats.bytes_consumed;
  if (!stats.detail.empty()) report.detail = stats.detail;
}

// ----------------------------------------------------- text trace salvage

std::optional<trace::Trace> salvage_trace_text(const std::string& text,
                                               SalvageReport& report) {
  const TextDoc doc = split_lines(text);
  std::size_t idx = 0;
  const auto stop_at = [&](std::size_t line_index, const std::string& why) {
    report.line = line_index + 1;
    report.byte_offset = line_index < doc.offsets.size()
                             ? doc.offsets[line_index]
                             : doc.total_bytes;
    report.detail = why;
  };
  if (doc.lines.empty() || doc.lines[0] != "psk-trace 1") {
    stop_at(0, "missing 'psk-trace 1' header");
    return std::nullopt;
  }
  ++idx;
  trace::Trace trace;
  {
    if (idx >= doc.lines.size()) {
      stop_at(idx, "missing app line");
      return std::nullopt;
    }
    const auto fields = split_fields(doc.lines[idx]);
    if (fields.size() != 2 || fields[0] != "app") {
      stop_at(idx, "missing app line");
      return std::nullopt;
    }
    trace.app_name = fields[1] == "-" ? "" : fields[1];
    ++idx;
  }
  std::uint64_t declared_ranks = 0;
  {
    if (idx >= doc.lines.size()) {
      stop_at(idx, "missing ranks line");
      return std::nullopt;
    }
    const auto fields = split_fields(doc.lines[idx]);
    if (fields.size() != 2 || fields[0] != "ranks") {
      stop_at(idx, "missing ranks line");
      return std::nullopt;
    }
    const std::optional<std::uint64_t> parsed = parse_ranks_count(fields[1]);
    if (!parsed) {
      stop_at(idx, "bad ranks count '" + fields[1] + "'");
      return std::nullopt;
    }
    declared_ranks = *parsed;
    ++idx;
  }
  report.ranks_expected = declared_ranks;
  bool stopped = false;
  for (std::uint64_t r = 0; r < declared_ranks && !stopped; ++r) {
    if (idx >= doc.lines.size()) {
      stop_at(idx, "rank " + std::to_string(r) + " header missing");
      break;
    }
    const auto fields = split_fields(doc.lines[idx]);
    if (fields.size() != 5 || fields[0] != "rank") {
      stop_at(idx, "rank " + std::to_string(r) + " header unparsable");
      break;
    }
    trace::RankTrace rank;
    std::uint64_t declared_events = 0;
    try {
      rank.rank = std::stoi(fields[1]);
      rank.total_time = std::stod(fields[2]);
      rank.final_compute = std::stod(fields[3]);
      const std::optional<std::uint64_t> events =
          parse_count(fields[4], kMaxEvents);
      if (!events) throw FormatError("bad event count");
      declared_events = *events;
    } catch (const std::exception&) {
      stop_at(idx, "rank " + std::to_string(r) + " header unparsable");
      break;
    }
    ++idx;
    ++report.ranks_kept;
    report.events_expected += declared_events;
    for (std::uint64_t e = 0; e < declared_events; ++e) {
      if (idx >= doc.lines.size()) {
        stop_at(idx, "rank " + std::to_string(r) + " truncated after " +
                         std::to_string(e) + " of " +
                         std::to_string(declared_events) + " event(s)");
        stopped = true;
        break;
      }
      try {
        rank.events.push_back(trace::parse_trace_event_line(doc.lines[idx]));
      } catch (const FormatError& error) {
        stop_at(idx, error.what());
        stopped = true;
        break;
      }
      ++idx;
      ++report.events_kept;
    }
    trace.ranks.push_back(std::move(rank));
  }
  if (report.detail.empty() && idx < doc.lines.size()) {
    stop_at(idx, "trailing data after last rank");
  }
  if (report.ranks_kept == 0) return std::nullopt;
  return trace;
}

// --------------------------------------------- text sig/skeleton salvage
//
// Signature and skeleton text documents are a fixed header followed by a
// "ranks N" line and N rank blocks, each starting with a "rank ..." line.
// A rank's loop forest is useless half-read, so salvage is rank-granular:
// re-parse the document with the damaged tail of rank blocks removed (and
// the ranks count rewritten), keeping the longest prefix that parses.
template <typename Value, typename ParseFn>
std::optional<Value> salvage_rank_blocks(const std::string& text,
                                         ParseFn parse,
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
  // A file torn mid-"ranks N" can leave just "ranks " (no count field),
  // so check the field count before touching fields[1].
  const auto ranks_fields = split_fields(doc.lines[ranks_line]);
  const std::optional<std::uint64_t> parsed =
      ranks_fields.size() == 2 ? parse_ranks_count(ranks_fields[1])
                               : std::nullopt;
  if (!parsed) {
    report.line = ranks_line + 1;
    report.byte_offset = doc.offsets[ranks_line];
    report.detail = "bad ranks count";
    return std::nullopt;
  }
  const std::uint64_t declared = *parsed;
  report.ranks_expected = declared;
  std::vector<std::size_t> rank_starts;
  for (std::size_t i = ranks_line + 1; i < doc.lines.size(); ++i) {
    if (starts_with(doc.lines[i], "rank ")) rank_starts.push_back(i);
  }
  const std::uint64_t max_keep =
      declared < rank_starts.size() ? declared : rank_starts.size();
  for (std::uint64_t keep = max_keep; keep > 0; --keep) {
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
      Value value = parse(rebuilt.str());
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

std::string render_units(std::uint64_t kept, std::uint64_t expected,
                         const char* unit) {
  return std::to_string(kept) + " of " + std::to_string(expected) + " " +
         unit;
}

// ------------------------------------------- lenient paths, shared by the
// skeleton file salvor (after the strict loader has refused) and the
// in-memory entry points (which have no strict fast-path).

std::optional<trace::Trace> salvage_trace_damaged(const std::string& bytes,
                                                  SalvageReport& report) {
  if (archive::looks_like_archive(bytes)) {
    const ArchiveHeader header = probe_archive(bytes);
    if (!header.usable) {
      report.detail = header.detail;
      return std::nullopt;
    }
    if (header.kind != archive::PayloadKind::kTrace) {
      report.detail = std::string("archive holds a ") +
                      archive::payload_kind_name(header.kind) +
                      ", not a trace";
      return std::nullopt;
    }
    archive::PrefixStats stats;
    archive::Result<trace::Trace> partial = archive::decode_trace_prefix(
        header.payload, header.payload_version, stats);
    if (!partial.ok()) {
      report.detail = partial.error().message;
      return std::nullopt;
    }
    apply_prefix_stats(stats, report);
    if (stats.ranks_kept == 0) return std::nullopt;
    report.recovered = true;
    return partial.take();
  }
  std::optional<trace::Trace> trace = salvage_trace_text(bytes, report);
  report.recovered = trace.has_value();
  return trace;
}

std::optional<sig::Signature> salvage_signature_damaged(
    const std::string& bytes, SalvageReport& report) {
  if (archive::looks_like_archive(bytes)) {
    const ArchiveHeader header = probe_archive(bytes);
    if (!header.usable) {
      report.detail = header.detail;
      return std::nullopt;
    }
    if (header.kind != archive::PayloadKind::kSignature) {
      report.detail = std::string("archive holds a ") +
                      archive::payload_kind_name(header.kind) +
                      ", not a signature";
      return std::nullopt;
    }
    archive::PrefixStats stats;
    archive::Result<sig::Signature> partial = archive::decode_signature_prefix(
        header.payload, header.payload_version, stats);
    if (!partial.ok()) {
      report.detail = partial.error().message;
      return std::nullopt;
    }
    apply_prefix_stats(stats, report);
    if (stats.ranks_kept == 0) return std::nullopt;
    report.recovered = true;
    return partial.take();
  }
  std::optional<sig::Signature> value = salvage_rank_blocks<sig::Signature>(
      bytes, [](const std::string& text) {
        return sig::signature_from_string(text);
      },
      report);
  report.recovered = value.has_value();
  return value;
}

std::optional<skeleton::Skeleton> salvage_skeleton_damaged(
    const std::string& bytes, SalvageReport& report) {
  if (archive::looks_like_archive(bytes)) {
    const ArchiveHeader header = probe_archive(bytes);
    if (!header.usable) {
      report.detail = header.detail;
      return std::nullopt;
    }
    if (header.kind != archive::PayloadKind::kSkeleton) {
      report.detail = std::string("archive holds a ") +
                      archive::payload_kind_name(header.kind) +
                      ", not a skeleton";
      return std::nullopt;
    }
    archive::PrefixStats stats;
    archive::Result<skeleton::Skeleton> partial = archive::decode_skeleton_prefix(
        header.payload, header.payload_version, stats);
    if (!partial.ok()) {
      report.detail = partial.error().message;
      return std::nullopt;
    }
    apply_prefix_stats(stats, report);
    if (stats.ranks_kept == 0) return std::nullopt;
    report.recovered = true;
    return partial.take();
  }
  std::optional<skeleton::Skeleton> value =
      salvage_rank_blocks<skeleton::Skeleton>(
          bytes, [](const std::string& text) {
            return skeleton::skeleton_from_string(text);
          },
          report);
  report.recovered = value.has_value();
  return value;
}

}  // namespace

std::string SalvageReport::render() const {
  std::ostringstream out;
  out << path << ": ";
  if (clean) {
    out << "intact (" << render_units(ranks_kept, ranks_expected, "rank(s)");
    if (events_expected > 0) {
      out << ", " << render_units(events_kept, events_expected, "event(s)");
    }
    out << ")";
    return out.str();
  }
  if (!recovered) {
    out << "unrecoverable";
    if (!detail.empty()) out << " (" << detail << ")";
    return out.str();
  }
  out << "salvaged " << render_units(ranks_kept, ranks_expected, "rank(s)");
  if (events_expected > 0) {
    out << ", " << render_units(events_kept, events_expected, "event(s)");
  }
  if (line > 0) out << "; damage starts at line " << line;
  if (byte_offset > 0) out << " (byte " << byte_offset << ")";
  if (!detail.empty()) out << "; " << detail;
  return out.str();
}

std::optional<trace::Trace> salvage_trace_bytes(const std::string& bytes,
                                                SalvageReport& report) {
  report = SalvageReport{};
  report.path = "<memory>";
  return salvage_trace_damaged(bytes, report);
}

std::optional<sig::Signature> salvage_signature_bytes(const std::string& bytes,
                                                      SalvageReport& report) {
  report = SalvageReport{};
  report.path = "<memory>";
  return salvage_signature_damaged(bytes, report);
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
