#include "skeleton/io.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sig/io.h"
#include "util/error.h"

namespace psk::skeleton {

namespace {

std::string format_double(double value) {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

}  // namespace

void write_skeleton(std::ostream& out, const Skeleton& skeleton) {
  out << "psk-skeleton 1\n";
  out << "app " << (skeleton.app_name.empty() ? "-" : skeleton.app_name)
      << "\n";
  out << "k " << format_double(skeleton.scaling_factor) << "\n";
  out << "intended " << format_double(skeleton.intended_time) << "\n";
  out << "min_good " << format_double(skeleton.min_good_time) << "\n";
  out << "good " << (skeleton.good ? 1 : 0) << "\n";
  // Reuse the signature body format for the rank sequences.
  sig::Signature body;
  body.app_name = skeleton.app_name;
  body.ranks = skeleton.ranks;
  out << "ranks " << body.ranks.size() << "\n";
  std::ostringstream rank_text;
  sig::write_signature(rank_text, body);
  // Skip the signature's own 5-line header; keep the rank blocks.
  std::istringstream in(rank_text.str());
  std::string line;
  for (int skip = 0; skip < 5; ++skip) std::getline(in, line);
  while (std::getline(in, line)) out << line << "\n";
}

std::string skeleton_to_string(const Skeleton& skeleton) {
  std::ostringstream out;
  write_skeleton(out, skeleton);
  return out.str();
}

Skeleton read_skeleton(std::istream& in) {
  const auto next_line = [&in]() -> std::string {
    std::string line;
    if (!std::getline(in, line)) {
      throw FormatError("skeleton: truncated input");
    }
    return line;
  };
  const auto scalar = [](const std::string& line, const char* key) {
    std::istringstream fields(line);
    std::string name, value;
    fields >> name >> value;
    if (name != key || value.empty()) {
      throw FormatError(std::string("skeleton: missing ") + key + " line");
    }
    return value;
  };

  const auto number = [](const std::string& text) {
    try {
      return std::stod(text);
    } catch (const std::exception&) {
      throw FormatError("skeleton: bad number '" + text + "'");
    }
  };

  if (next_line() != "psk-skeleton 1") {
    throw FormatError("skeleton: missing 'psk-skeleton 1' header");
  }
  Skeleton skeleton;
  const std::string app = scalar(next_line(), "app");
  skeleton.app_name = app == "-" ? "" : app;
  skeleton.scaling_factor = number(scalar(next_line(), "k"));
  skeleton.intended_time = number(scalar(next_line(), "intended"));
  skeleton.min_good_time = number(scalar(next_line(), "min_good"));
  skeleton.good = scalar(next_line(), "good") == "1";
  const std::size_t rank_count =
      sig::parse_rank_count(scalar(next_line(), "ranks"));

  // Re-wrap the remaining rank blocks as a signature document and reuse its
  // parser.
  std::ostringstream rest;
  rest << "psk-signature 1\napp -\nthreshold 0\nratio 1\nranks "
       << rank_count << "\n";
  rest << in.rdbuf();
  std::istringstream body(rest.str());
  sig::Signature parsed = sig::read_signature(body);
  skeleton.ranks = std::move(parsed.ranks);
  return skeleton;
}

Skeleton skeleton_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_skeleton(in);
}

void save_skeleton(const std::string& path, const Skeleton& skeleton) {
  std::ofstream out(path);
  util::require(out.good(), "save_skeleton: cannot open " + path);
  write_skeleton(out, skeleton);
}

Skeleton load_skeleton(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "load_skeleton: cannot open " + path);
  return read_skeleton(in);
}

}  // namespace psk::skeleton
