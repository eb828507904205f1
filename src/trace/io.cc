#include "trace/io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/format.h"

namespace psk::trace {

namespace {

// Count fields in untrusted input only bound the *parse loop*; reserve() is
// clamped so a corrupt count cannot trigger a multi-gigabyte allocation
// (std::bad_alloc / std::length_error instead of FormatError) before the
// loop hits truncated input.
constexpr std::size_t kReserveCap = 4096;

// Caps on the header counts, the archive codec's: the rank count, a rank id
// (below the largest rank count) and one rank's event count.
constexpr std::uint64_t kMaxRanks = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxEvents = std::uint64_t{1} << 32;

/// An exact decimal count of at most `cap` (util::parse_decimal); `what`
/// names the field in the error.
std::uint64_t parse_count(const std::string& text, std::uint64_t cap,
                          const char* what) {
  const std::optional<std::uint64_t> value = util::parse_decimal(text, cap);
  if (!value) {
    throw FormatError(std::string("trace: bad ") + what + " '" + text +
                      "' (want a decimal integer <= " + std::to_string(cap) +
                      ")");
  }
  return *value;
}

std::string format_double(double value) {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, sep)) fields.push_back(field);
  return fields;
}

double parse_double(const std::string& text) {
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    throw FormatError("trace: bad number '" + text + "'");
  }
}

std::uint64_t parse_u64(const std::string& text) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    throw FormatError("trace: bad integer '" + text + "'");
  }
}

int parse_int(const std::string& text) {
  try {
    return std::stoi(text);
  } catch (const std::exception&) {
    throw FormatError("trace: bad integer '" + text + "'");
  }
}

void write_event(std::ostream& out, const TraceEvent& event) {
  out << "E " << mpi::call_type_name(event.type) << " " << event.peer << " "
      << event.bytes << " " << event.tag << " "
      << format_double(event.t_start) << " " << format_double(event.t_end)
      << " " << format_double(event.pre_compute) << " "
      << format_double(event.interior_compute) << " "
      << format_double(event.pre_mem_bytes) << " "
      << format_double(event.interior_mem_bytes) << " ";
  // Parts: comma-separated peer:bytes:direction triples (or "-").
  if (event.parts.empty()) {
    out << "-";
  } else {
    for (std::size_t i = 0; i < event.parts.size(); ++i) {
      const mpi::PeerBytes& part = event.parts[i];
      if (i) out << ",";
      out << part.peer << ":" << part.bytes << ":"
          << (part.outgoing ? "o" : "i") << ":" << part.tag;
    }
  }
  out << " ";
  // Request linkage (raw traces only).
  out << (event.request == mpi::Request::kInvalid
              ? std::string("-")
              : std::to_string(event.request))
      << " ";
  if (event.requests.empty()) {
    out << "-";
  } else {
    for (std::size_t i = 0; i < event.requests.size(); ++i) {
      if (i) out << ",";
      out << event.requests[i];
    }
  }
  out << "\n";
}

TraceEvent parse_event_line(const std::string& line) {
  const auto fields = split(line, ' ');
  if (fields.size() != 14 || fields[0] != "E") {
    throw FormatError("trace: malformed event line: " + line);
  }
  TraceEvent event;
  event.type = mpi::call_type_from_name(fields[1]);
  event.peer = parse_int(fields[2]);
  event.bytes = parse_u64(fields[3]);
  event.tag = parse_int(fields[4]);
  event.t_start = parse_double(fields[5]);
  event.t_end = parse_double(fields[6]);
  event.pre_compute = parse_double(fields[7]);
  event.interior_compute = parse_double(fields[8]);
  event.pre_mem_bytes = parse_double(fields[9]);
  event.interior_mem_bytes = parse_double(fields[10]);
  if (fields[11] != "-") {
    for (const std::string& triple : split(fields[11], ',')) {
      const auto bits = split(triple, ':');
      if (bits.size() != 4) {
        throw FormatError("trace: malformed part '" + triple + "'");
      }
      event.parts.push_back(mpi::PeerBytes{parse_int(bits[0]),
                                           parse_u64(bits[1]), bits[2] == "o",
                                           parse_int(bits[3])});
    }
  }
  if (fields[12] != "-") {
    event.request = static_cast<std::uint32_t>(parse_u64(fields[12]));
  }
  if (fields[13] != "-") {
    for (const std::string& id : split(fields[13], ',')) {
      event.requests.push_back(static_cast<std::uint32_t>(parse_u64(id)));
    }
  }
  return event;
}

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  out << "psk-trace 1\n";
  out << "app " << (trace.app_name.empty() ? "-" : trace.app_name) << "\n";
  out << "ranks " << trace.ranks.size() << "\n";
  for (const RankTrace& rank : trace.ranks) {
    out << "rank " << rank.rank << " " << format_double(rank.total_time)
        << " " << format_double(rank.final_compute) << " "
        << rank.events.size() << "\n";
    for (const TraceEvent& event : rank.events) write_event(out, event);
  }
}

std::string trace_to_string(const Trace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

Trace read_trace(std::istream& in) {
  std::string line;
  const auto next_line = [&]() -> std::string {
    if (!std::getline(in, line)) throw FormatError("trace: truncated input");
    return line;
  };

  if (next_line() != "psk-trace 1") {
    throw FormatError("trace: missing 'psk-trace 1' header");
  }
  Trace trace;
  {
    const auto fields = split(next_line(), ' ');
    if (fields.size() != 2 || fields[0] != "app") {
      throw FormatError("trace: missing app line");
    }
    trace.app_name = fields[1] == "-" ? "" : fields[1];
  }
  std::size_t rank_count = 0;
  {
    const auto fields = split(next_line(), ' ');
    if (fields.size() != 2 || fields[0] != "ranks") {
      throw FormatError("trace: missing ranks line");
    }
    rank_count = parse_count(fields[1], kMaxRanks, "ranks count");
  }
  for (std::size_t r = 0; r < rank_count; ++r) {
    const auto fields = split(next_line(), ' ');
    if (fields.size() != 5 || fields[0] != "rank") {
      throw FormatError("trace: missing rank header");
    }
    RankTrace rank;
    rank.rank =
        static_cast<int>(parse_count(fields[1], kMaxRanks - 1, "rank id"));
    rank.total_time = parse_double(fields[2]);
    rank.final_compute = parse_double(fields[3]);
    const std::uint64_t event_count =
        parse_count(fields[4], kMaxEvents, "event count");
    rank.events.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(event_count, kReserveCap)));
    for (std::uint64_t e = 0; e < event_count; ++e) {
      rank.events.push_back(parse_event_line(next_line()));
    }
    trace.ranks.push_back(std::move(rank));
  }
  return trace;
}

Trace trace_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  util::require(out.good(), "save_trace: cannot open " + path);
  write_trace(out, trace);
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), "load_trace: cannot open " + path);
  return read_trace(in);
}

}  // namespace psk::trace
