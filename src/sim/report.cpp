#include "sim/report.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/csv.h"

namespace helcfl::sim {

namespace {
std::string fixed2(double value, const char* suffix) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.2f%s", value, suffix);
  return buffer;
}
}  // namespace

std::string format_minutes(double seconds) { return fixed2(seconds / 60.0, "min"); }

std::string format_minutes_or_x(const std::optional<double>& seconds) {
  return seconds ? format_minutes(*seconds) : "X";
}

std::string format_joules(double joules) { return fixed2(joules, "J"); }

std::string format_percent(double fraction) { return fixed2(fraction * 100.0, "%"); }

void write_history_csv(const std::string& path, const fl::TrainingHistory& history) {
  util::CsvWriter csv(path, {"round", "cum_delay_s", "cum_energy_j", "train_loss",
                             "survivors", "crashed", "upload_failures", "dropped_late",
                             "retries", "quorum_failed", "wasted_energy_j",
                             "test_loss", "test_accuracy"});
  for (const auto& r : history.rounds()) {
    csv.write_row({util::CsvWriter::field(r.round), util::CsvWriter::field(r.cum_delay_s),
                   util::CsvWriter::field(r.cum_energy_j),
                   util::CsvWriter::field(r.train_loss),
                   util::CsvWriter::field(r.survivors), util::CsvWriter::field(r.crashed),
                   util::CsvWriter::field(r.upload_failures),
                   util::CsvWriter::field(r.dropped_late),
                   util::CsvWriter::field(r.retries),
                   util::CsvWriter::field(r.quorum_failed ? 1 : 0),
                   util::CsvWriter::field(r.wasted_energy_j),
                   r.evaluated ? util::CsvWriter::field(r.test_loss) : "",
                   r.evaluated ? util::CsvWriter::field(r.test_accuracy) : ""});
  }
}

double accuracy_at_round(const fl::TrainingHistory& history, std::size_t round) {
  double accuracy = std::numeric_limits<double>::quiet_NaN();
  for (const auto& r : history.rounds()) {
    if (r.round > round) break;
    if (r.evaluated) accuracy = r.test_accuracy;
  }
  return accuracy;
}

void print_accuracy_curves(std::span<const std::string> labels,
                           std::span<const fl::TrainingHistory> histories,
                           std::size_t checkpoints) {
  if (labels.size() != histories.size() || histories.empty() || checkpoints == 0) {
    return;
  }
  std::size_t max_round = 0;
  for (const auto& h : histories) {
    if (!h.empty()) max_round = std::max(max_round, h.back().round);
  }

  std::printf("%-8s", "round");
  for (const auto& label : labels) std::printf("  %12s", label.c_str());
  std::printf("\n");
  for (std::size_t k = 1; k <= checkpoints; ++k) {
    const std::size_t round = max_round * k / checkpoints;
    std::printf("%-8zu", round);
    for (const auto& h : histories) {
      const double accuracy = accuracy_at_round(h, round);
      if (std::isnan(accuracy)) {
        std::printf("  %12s", "-");
      } else {
        std::printf("  %11.2f%%", accuracy * 100.0);
      }
    }
    std::printf("\n");
  }
}

Observability::Observability(const std::string& trace_path,
                             const std::string& level, bool profile,
                             const std::string& chrome_path)
    : print_tables_(profile),
      trace_path_(trace_path),
      chrome_path_(chrome_path) {
  if (!trace_path.empty()) {
    tracer_ = std::make_unique<obs::Tracer>(trace_path,
                                            obs::parse_trace_level(level));
  }
  if (profile || !chrome_path.empty()) {
    profiler_ = std::make_unique<obs::PhaseProfiler>(tracer_.get());
  }
  if (tracer_ || profiler_) registry_ = std::make_unique<obs::Registry>();
}

obs::Instruments Observability::instruments() {
  return {tracer_.get(), profiler_.get(), registry_.get()};
}

void Observability::finish() {
  if (registry_ && tracer_) registry_->emit_to(*tracer_);
  if (print_tables_ && profiler_) {
    std::printf("\n%s", profiler_->format_summary().c_str());
  }
  if (print_tables_ && registry_ && !registry_->empty()) {
    std::printf("\n%s", registry_->format_table().c_str());
  }
  if (profiler_ && !chrome_path_.empty()) {
    profiler_->write_chrome_trace(chrome_path_);
    std::printf("chrome trace    %s\n", chrome_path_.c_str());
  }
  if (tracer_) {
    tracer_->flush();
    std::printf("trace           %s (%llu events, level %s)\n",
                trace_path_.c_str(),
                static_cast<unsigned long long>(tracer_->event_count()),
                std::string(obs::trace_level_name(tracer_->level())).c_str());
  }
}

}  // namespace helcfl::sim
