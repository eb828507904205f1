#include "sig/io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/format.h"

namespace psk::sig {

namespace {

// Bounds on untrusted input: loop nests deeper than this are rejected
// before the recursive reader can overflow the stack, corrupt count fields
// cannot trigger huge up-front allocations, and the rank count is parsed as
// an exact decimal with a plausibility cap.
constexpr int kMaxNodeDepth = 256;
constexpr std::size_t kReserveCap = 4096;
constexpr std::size_t kMaxRanks = std::size_t{1} << 16;

std::string format_double(double value) {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, sep)) {
    if (!field.empty()) fields.push_back(field);
  }
  return fields;
}

double parse_double(const std::string& text) {
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    throw FormatError("signature: bad number '" + text + "'");
  }
}

int parse_int(const std::string& text) {
  try {
    return std::stoi(text);
  } catch (const std::exception&) {
    throw FormatError("signature: bad integer '" + text + "'");
  }
}

std::uint64_t parse_u64(const std::string& text) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    throw FormatError("signature: bad integer '" + text + "'");
  }
}

void write_node(std::ostream& out, const SigNode& node, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (node.kind == SigNode::Kind::kLoop) {
    out << indent << "L " << node.iterations << " " << node.body.size()
        << "\n";
    for (const SigNode& child : node.body) {
      write_node(out, child, depth + 1);
    }
    return;
  }
  const SigEvent& event = node.event;
  out << indent << "E " << mpi::call_type_name(event.type) << " "
      << event.peer << " " << event.tag << " " << format_double(event.bytes)
      << " " << format_double(event.pre_compute) << " "
      << format_double(event.interior_compute) << " "
      << format_double(event.mean_duration) << " " << event.cluster_id << " "
      << format_double(event.pre_compute_m2) << " " << event.observations
      << " " << format_double(event.pre_mem_bytes) << " "
      << format_double(event.interior_mem_bytes) << " ";
  if (event.parts.empty()) {
    out << "-";
  } else {
    for (std::size_t i = 0; i < event.parts.size(); ++i) {
      const SigEvent::Part& part = event.parts[i];
      if (i) out << ",";
      out << part.peer << ":" << format_double(part.bytes) << ":"
          << (part.outgoing ? "o" : "i") << ":" << part.tag;
    }
  }
  out << "\n";
}

class NodeReader {
 public:
  explicit NodeReader(std::istream& in) : in_(in) {}

  std::string next_line() {
    std::string line;
    if (!std::getline(in_, line)) {
      throw FormatError("signature: truncated input");
    }
    return line;
  }

  SigNode read_node(int depth = 0) {
    if (depth > kMaxNodeDepth) {
      throw FormatError("signature: loop nesting deeper than " +
                        std::to_string(kMaxNodeDepth));
    }
    const std::string line = next_line();
    const auto fields = split(line, ' ');
    util::require(!fields.empty(), "signature: empty node line");
    if (fields[0] == "L") {
      if (fields.size() != 3) {
        throw FormatError("signature: malformed loop line: " + line);
      }
      const std::uint64_t iterations = parse_u64(fields[1]);
      const std::size_t children = parse_u64(fields[2]);
      SigSeq body;
      body.reserve(std::min(children, kReserveCap));
      for (std::size_t i = 0; i < children; ++i) {
        body.push_back(read_node(depth + 1));
      }
      return SigNode::loop(iterations, std::move(body));
    }
    if (fields[0] != "E" || fields.size() != 14) {
      throw FormatError("signature: malformed event line: " + line);
    }
    SigEvent event;
    event.type = mpi::call_type_from_name(fields[1]);
    event.peer = parse_int(fields[2]);
    event.tag = parse_int(fields[3]);
    event.bytes = parse_double(fields[4]);
    event.pre_compute = parse_double(fields[5]);
    event.interior_compute = parse_double(fields[6]);
    event.mean_duration = parse_double(fields[7]);
    event.cluster_id = parse_int(fields[8]);
    event.pre_compute_m2 = parse_double(fields[9]);
    event.observations = parse_u64(fields[10]);
    event.pre_mem_bytes = parse_double(fields[11]);
    event.interior_mem_bytes = parse_double(fields[12]);
    if (fields[13] != "-") {
      for (const std::string& chunk : split(fields[13], ',')) {
        const auto bits = split(chunk, ':');
        if (bits.size() != 4) {
          throw FormatError("signature: malformed part '" + chunk + "'");
        }
        event.parts.push_back(SigEvent::Part{parse_int(bits[0]),
                                             parse_double(bits[1]),
                                             bits[2] == "o",
                                             parse_int(bits[3])});
      }
    }
    return SigNode::leaf(std::move(event));
  }

  RankSignature read_rank() {
    const auto fields = split(next_line(), ' ');
    if (fields.size() != 5 || fields[0] != "rank") {
      throw FormatError("signature: missing rank header");
    }
    RankSignature rank;
    rank.rank = parse_int(fields[1]);
    rank.total_time = parse_double(fields[2]);
    rank.final_compute = parse_double(fields[3]);
    const std::size_t roots = parse_u64(fields[4]);
    rank.roots.reserve(std::min(roots, kReserveCap));
    for (std::size_t i = 0; i < roots; ++i) {
      rank.roots.push_back(read_node());
    }
    return rank;
  }

 private:
  std::istream& in_;
};

void write_rank(std::ostream& out, const RankSignature& rank) {
  out << "rank " << rank.rank << " " << format_double(rank.total_time) << " "
      << format_double(rank.final_compute) << " " << rank.roots.size()
      << "\n";
  for (const SigNode& node : rank.roots) write_node(out, node, 1);
}

}  // namespace

void write_signature(std::ostream& out, const Signature& signature) {
  out << "psk-signature 1\n";
  out << "app " << (signature.app_name.empty() ? "-" : signature.app_name)
      << "\n";
  out << "threshold " << format_double(signature.threshold) << "\n";
  out << "ratio " << format_double(signature.compression_ratio) << "\n";
  out << "ranks " << signature.ranks.size() << "\n";
  for (const RankSignature& rank : signature.ranks) write_rank(out, rank);
}

std::string signature_to_string(const Signature& signature) {
  std::ostringstream out;
  write_signature(out, signature);
  return out.str();
}

Signature read_signature(std::istream& in) {
  NodeReader reader(in);
  if (reader.next_line() != "psk-signature 1") {
    throw FormatError("signature: missing 'psk-signature 1' header");
  }
  Signature signature;
  {
    const auto fields = split(reader.next_line(), ' ');
    if (fields.size() != 2 || fields[0] != "app") {
      throw FormatError("signature: missing app line");
    }
    signature.app_name = fields[1] == "-" ? "" : fields[1];
  }
  const auto read_scalar = [&](const char* key) {
    const auto fields = split(reader.next_line(), ' ');
    if (fields.size() != 2 || fields[0] != key) {
      throw FormatError(std::string("signature: missing ") + key + " line");
    }
    return parse_double(fields[1]);
  };
  signature.threshold = read_scalar("threshold");
  signature.compression_ratio = read_scalar("ratio");
  std::size_t rank_count = 0;
  {
    const auto fields = split(reader.next_line(), ' ');
    if (fields.size() != 2 || fields[0] != "ranks") {
      throw FormatError("signature: missing ranks line");
    }
    rank_count = parse_rank_count(fields[1]);
  }
  for (std::size_t r = 0; r < rank_count; ++r) {
    signature.ranks.push_back(reader.read_rank());
  }
  return signature;
}

std::size_t parse_rank_count(const std::string& text) {
  const auto bad = [&text] {
    return FormatError("bad ranks count '" + text +
                       "' (want a decimal integer <= " +
                       std::to_string(kMaxRanks) + ")");
  };
  const std::optional<std::uint64_t> value =
      util::parse_decimal(text, kMaxRanks);
  if (!value) throw bad();
  return static_cast<std::size_t>(*value);
}

Signature signature_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_signature(in);
}

void save_signature(const std::string& path, const Signature& signature) {
  std::ofstream out(path);
  util::require(out.good(), "save_signature: cannot open " + path);
  write_signature(out, signature);
}

Signature load_signature(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "load_signature: cannot open " + path);
  return read_signature(in);
}

}  // namespace psk::sig
