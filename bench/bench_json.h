// Machine-readable benchmark output.
//
// The micro benches report to the console as usual and additionally write
// a small JSON file (one object per benchmark: name, ns/op, items/sec,
// iterations, plus any user counters such as p99 latencies) so CI and
// before/after comparisons can diff numbers without scraping console
// tables.  A top-level "host" object records where the rows were measured
// (core count, CPU model, compiler, build type, commit), so rows from two
// files are only compared like for like.  Override the output path with
// --bench-json=<path>.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/ops.h"

// Set by bench/CMakeLists.txt at configure time.
#ifndef HELCFL_BENCH_BUILD_TYPE
#define HELCFL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HELCFL_BENCH_COMMIT
#define HELCFL_BENCH_COMMIT "unknown"
#endif

namespace helcfl::bench {

/// The "model name" of the first CPU in /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

/// Display reporter that forwards to the stock console reporter while
/// collecting per-run rows, then writes them as JSON in Finalize().
/// (google-benchmark's dedicated file-reporter slot insists on
/// --benchmark_out, so the JSON lives on the display path instead.)
class JsonTeeReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonTeeReporter(std::string path) : path_(std::move(path)) {}

  bool ReportContext(const Context& context) override {
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& report) override {
    console_.ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<double>(run.iterations);
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time /
                                static_cast<double>(run.iterations) * 1e9
                          : 0.0;
      // Wall-clock seconds the measured iterations actually took — a rate
      // (items_per_second) without its measurement window is unauditable.
      row.duration_s = run.real_accumulated_time;
      // The ISA is resolved once per process but recorded per row so row
      // diffs are self-describing.
      row.isa = tensor::kernel_isa();
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          row.items_per_sec = static_cast<double>(counter);
        } else if (name == "flops") {
          // Rate counter: flops/sec over the measurement window.
          row.gflops = static_cast<double>(counter) / 1e9;
        } else {
          row.counters.emplace_back(name, static_cast<double>(counter));
        }
      }
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override {
    console_.Finalize();
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench_json: cannot open " << path_ << "\n";
      return;
    }
    out << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": \"" << escape(cpu_model()) << "\", \"compiler\": \""
        << escape(__VERSION__) << "\", \"build_type\": \"" << escape(HELCFL_BENCH_BUILD_TYPE)
        << "\", \"commit\": \"" << escape(HELCFL_BENCH_COMMIT) << "\"},\n"
        << "  \"kernel_isa\": \"" << tensor::kernel_isa() << "\",\n"
        << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "    {\"name\": \"" << escape(r.name) << "\", \"ns_per_op\": "
          << r.ns_per_op << ", \"items_per_sec\": " << r.items_per_sec
          << ", \"duration_s\": " << r.duration_s
          << ", \"iterations\": " << r.iterations
          << ", \"isa\": \"" << escape(r.isa) << "\"";
      if (r.gflops > 0.0) out << ", \"gflops\": " << r.gflops;
      for (const auto& [name, value] : r.counters) {
        out << ", \"" << escape(name) << "\": " << value;
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << rows_.size() << " benchmark rows to " << path_
              << "\n";
  }

 private:
  struct Row {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_sec = 0.0;
    double duration_s = 0.0;
    double iterations = 0.0;
    double gflops = 0.0;    ///< from the "flops" rate counter; 0 = not set
    std::string isa;        ///< kernel ISA the row ran with
    /// Every other user counter (e.g. p99 latencies), in counter order.
    std::vector<std::pair<std::string, double>> counters;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  benchmark::ConsoleReporter console_;
  std::string path_;
  std::vector<Row> rows_;
};

/// Drop-in replacement for benchmark_main: console output plus a JSON file.
/// Recognizes and strips a leading `--bench-json=<path>` argument.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const char* default_path) {
  std::string path = default_path;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    constexpr const char* kFlag = "--bench-json=";
    if (std::strncmp(*it, kFlag, std::strlen(kFlag)) == 0) {
      path = *it + std::strlen(kFlag);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonTeeReporter reporter(path);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace helcfl::bench

#define HELCFL_BENCH_JSON_MAIN(default_path)                             \
  int main(int argc, char** argv) {                                      \
    return helcfl::bench::run_benchmarks_with_json(argc, argv,           \
                                                   default_path);        \
  }
