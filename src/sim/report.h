// Console/CSV reporting helpers shared by the benches and examples.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fl/metrics.h"
#include "obs/instruments.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::sim {

/// "6.82min" for 409.2 s; fixed two decimals.
std::string format_minutes(double seconds);

/// format_minutes for a reached target, the paper's "X" otherwise.
std::string format_minutes_or_x(const std::optional<double>& seconds);

/// "123.4J" with two decimals.
std::string format_joules(double joules);

/// "87.31%" for 0.8731.
std::string format_percent(double fraction);

/// Writes one history to CSV with the columns
/// round,cum_delay_s,cum_energy_j,train_loss,survivors,crashed,
/// upload_failures,dropped_late,retries,quorum_failed,wasted_energy_j,
/// test_loss,test_accuracy (test columns empty on rounds without
/// evaluation; the failure columns are all zero when faults are disabled).
void write_history_csv(const std::string& path, const fl::TrainingHistory& history);

/// Prints a fixed-width table row set: the accuracy of each scheme at
/// evenly spaced checkpoints (for Fig. 2-style curves on the console).
/// `labels` and `histories` are index-aligned.
void print_accuracy_curves(std::span<const std::string> labels,
                           std::span<const fl::TrainingHistory> histories,
                           std::size_t checkpoints);

/// Accuracy of the last evaluated round at or before `round` (NaN if none).
double accuracy_at_round(const fl::TrainingHistory& history, std::size_t round);

/// Owns the observability sinks behind the shared `--trace-out` /
/// `--trace-level` / `--profile` / `--chrome-trace` flags of `helcfl_cli`
/// and the benches (docs/OBSERVABILITY.md documents the flags and the
/// emitted schema).  Default-constructed it is fully inert; attach with
/// `config.trainer.obs = observability.instruments()` and call `finish()`
/// once after the run(s) to print the profile/counter tables, dump the
/// counters into the trace, write the Chrome trace, and flush.
class Observability {
 public:
  /// Inert: instruments() is all-null, finish() is a no-op.
  Observability() = default;

  /// `trace_path` empty = no JSONL trace; `level` is parsed with
  /// obs::parse_trace_level ("round" | "decision" | "debug").  `profile`
  /// enables the phase profiler and the end-of-run console tables;
  /// `chrome_path` empty = no Chrome trace (non-empty implies profiling).
  Observability(const std::string& trace_path, const std::string& level,
                bool profile, const std::string& chrome_path);

  /// Borrowed pointers to the owned sinks (null for disabled ones);
  /// valid until this object is destroyed.
  obs::Instruments instruments();

  /// True when any sink is live.
  bool any() const { return tracer_ || profiler_ || registry_; }

  /// End-of-run reporting; safe to call on an inert instance.
  void finish();

 private:
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  std::unique_ptr<obs::Registry> registry_;
  bool print_tables_ = false;
  std::string trace_path_;
  std::string chrome_path_;
};

}  // namespace helcfl::sim
