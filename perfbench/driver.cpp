// Benchmark driver: runs one workload of the repository benchmark and
// prints its raw figures as one JSON object on stdout.
//
//   perfbench_driver --workload paper_sync|async_faults|svc_fleet
//                    --seed N --seconds S --trace 0|1 --threads N
//                    --workdir DIR
//
// perfbench/run.py builds this binary, runs it, turns the raw figures into
// the named metrics and adds the host block; run the benchmark through
// run.py rather than calling this directly.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common.h"
#include "tensor/ops.h"
#include "util/log.h"

namespace perfbench {

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  const auto [it, inserted] = checks.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok) notes.push_back(name + (detail.empty() ? "" : ": " + detail));
}

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string series_map(const std::map<std::string, std::vector<double>>& map) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : map) {
    out += first ? "" : ",";
    out += quote(name);
    out += ":[";
    first = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += number(values[i]);
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"digest\":" + quote(digest);
  out += ",\"samples\":" + series_map(samples);
  out += ",\"layers\":" + series_map(layers);
  out += ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out += first ? "" : ",";
    out += quote(name);
    out += ":";
    out += number(value);
    first = false;
  }
  out += "},\"checks\":{";
  first = true;
  for (const auto& [name, ok] : checks) {
    out += first ? "" : ",";
    out += quote(name);
    out += ok ? ":true" : ":false";
    first = false;
  }
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += quote(notes[i]);
  }
  out += "],\"host\":{\"kernel_isa\":" +
         quote(std::string(helcfl::tensor::kernel_isa())) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) + "}}";
  return out;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--threads") {
      args.threads = std::stoul(value);
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workdir.empty() || args.threads == 0 || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_driver: --workdir, --threads >= 1 and "
                         "--seconds > 0 are required\n");
    return 2;
  }
  helcfl::util::set_log_level(helcfl::util::LogLevel::kWarn);
  try {
    perfbench::Report report;
    if (args.workload == "paper_sync" || args.workload == "async_faults") {
      report = perfbench::run_fl(args);
    } else if (args.workload == "svc_fleet") {
      report = perfbench::run_svc(args);
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    report.values["peak_rss_mb"] = perfbench::peak_rss_mb();
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
