#include "util/csv.h"

#include <charconv>
#include <stdexcept>

namespace helcfl::util {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path, std::ios::trunc) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  write_row(header);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& value : fields) {
    if (!first) out_ << ',';
    out_ << escape(value);
    first = false;
  }
  out_ << '\n';
}

std::string CsvWriter::field(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string CsvWriter::field(std::size_t value) { return std::to_string(value); }

std::string CsvWriter::field(int value) { return std::to_string(value); }

std::string CsvWriter::escape(std::string_view raw) {
  const bool needs_quotes =
      raw.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(raw);
  std::string quoted = "\"";
  for (const char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace helcfl::util
