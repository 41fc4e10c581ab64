// Shared plumbing of the benchmark driver: the run arguments, a raw
// result report serialized as one JSON object, and small timing helpers.
// Statistics (medians, percentiles) are left to perfbench/stats.py so
// they are computed and tested in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< N of the parallel FL passes (min(nproc, 4))
  std::string workdir;      ///< per-run scratch directory inside the checkout
};

/// Raw figures of one driver run.  `samples` feed the end-to-end metrics
/// (one entry per repetition or per decision), `layers` the per-layer
/// metrics (one entry per traced repetition; run.py takes the median).
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, double> values;  ///< single figures (e.g. peak RSS)
  std::map<std::string, bool> checks;  ///< name -> passed every time run
  std::vector<std::string> notes;      ///< why a check failed, for the log
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< hex digest of the workload's outputs for this seed

  void check(const std::string& name, bool ok, const std::string& detail = {});
  void layer(const std::string& name, double value) { layers[name].push_back(value); }
  std::string to_json() const;
};

using Clock = std::chrono::steady_clock;

/// Operations every untraced pass completes at least, whatever the
/// window: p99 latency then has at least ten samples beyond it.
inline constexpr std::uint64_t kMinOps = 1000;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over raw bytes, chained from `seed` so several buffers can be
/// folded into one digest.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                     std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Reads a whole file; throws std::runtime_error when it cannot.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Hex form of a digest, for check details.
std::string hex(std::uint64_t value);

/// One finished span of the program's PhaseProfiler.
struct Span {
  std::string phase;
  std::uint32_t tid = 0;  ///< 0 = coordinator/service thread, 1..N pool workers
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// A PhaseProfiler whose spans the program mirrors, as its own `phase`
/// trace events, into an in-memory sink that spans() parses.  Attach
/// profiler() through obs::Instruments; no tracer is attached to the
/// program itself, so it emits nothing else.
class SpanRecorder {
 public:
  SpanRecorder();
  helcfl::obs::PhaseProfiler& profiler() { return profiler_; }
  std::vector<Span> spans();

 private:
  std::ostringstream* sink_;  ///< owned by mirror_
  helcfl::obs::Tracer mirror_;
  helcfl::obs::PhaseProfiler profiler_;
};

/// Sum of the durations of `phase`'s spans, in seconds.
double total_s(const std::vector<Span>& spans, const std::string& phase);

/// Number of `phase` spans.
double span_count(const std::vector<Span>& spans, const std::string& phase);

/// Share of [begin_us, end_us) that no span on thread 0 covers.
double unattributed_ratio(const std::vector<Span>& spans, std::uint64_t begin_us,
                          std::uint64_t end_us);

Report run_fl(const RunArgs& args);
Report run_svc(const RunArgs& args);

}  // namespace perfbench
