// Minimal CSV writer used by the benchmark harness to persist experiment
// series (accuracy curves, delay/energy timelines) for external plotting.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace helcfl::util {

/// Streams rows of a CSV file.  Fields containing commas, quotes, or
/// newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncating) and emits `header` as first row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Appends one row.  The number of fields should match the header.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with full round-trip precision.
  static std::string field(double value);
  static std::string field(std::size_t value);
  static std::string field(int value);

 private:
  static std::string escape(std::string_view raw);

  std::ofstream out_;
};

}  // namespace helcfl::util
