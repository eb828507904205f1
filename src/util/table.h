// ASCII table and bar-chart rendering for the benchmark harnesses.
//
// Every `psk figure` entry regenerates one of the paper's tables/figures as
// plain text; these helpers keep the output layout consistent across them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace psk::util {

/// Column-aligned ASCII table with a header row and optional title.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; the row must have as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with `decimals` digits.
  void add_row_numeric(const std::string& label,
                       const std::vector<double>& values, int decimals);

  /// Renders with box-drawing separators.
  std::string render() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Horizontal ASCII bar chart: one labelled bar per entry, scaled so the
/// longest bar is `width` characters.
struct BarChart {
  struct Entry {
    std::string label;
    double value = 0.0;
  };

  std::string title;
  std::vector<Entry> entries;
  std::size_t width = 50;
  int decimals = 1;
  std::string unit;

  std::string render() const;
};

/// Grouped series chart rendered as a table plus per-group bars; mirrors the
/// paper's grouped-bar figures (e.g. error per benchmark per skeleton size).
struct GroupedSeries {
  std::string title;
  std::vector<std::string> group_labels;           // x-axis groups
  std::vector<std::string> series_labels;          // one bar per series
  std::vector<std::vector<double>> values;         // [series][group]
  int decimals = 1;
  std::string unit;

  std::string render() const;
};

}  // namespace psk::util
