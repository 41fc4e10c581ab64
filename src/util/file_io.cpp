#include "util/file_io.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace helcfl::util {

std::string expand_token(std::string path, std::string_view token,
                         std::string_view value) {
  for (std::size_t pos = path.find(token); pos != std::string::npos;
       pos = path.find(token, pos + value.size())) {
    path.replace(pos, token.size(), value);
  }
  return path;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open '" + tmp + "' for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("failed to write '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed to rename '" + tmp + "' to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("failed to read '" + path + "'");
  }
  return bytes;
}

}  // namespace helcfl::util
