// Reading the program's PhaseProfiler spans back out of its `phase` trace
// events (docs/OBSERVABILITY.md), and the span arithmetic the per-layer
// metrics need.
#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

/// Value of `"key":` in one flat JSON line (string quotes stripped).
std::string_view field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  std::size_t end = 0;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

std::uint64_t field_u64(std::string_view line, std::string_view key) {
  return std::stoull(std::string(field(line, key)));
}

}  // namespace

SpanRecorder::SpanRecorder()
    : sink_(nullptr),
      mirror_(
          [this] {
            auto sink = std::make_unique<std::ostringstream>();
            sink_ = sink.get();
            return sink;
          }(),
          helcfl::obs::TraceLevel::kDebug),
      profiler_(&mirror_) {}

std::vector<Span> SpanRecorder::spans() {
  mirror_.flush();
  std::vector<Span> spans;
  std::istringstream in(sink_->str());
  std::string line;
  while (std::getline(in, line)) {
    if (field(line, "event") != "phase") continue;
    spans.push_back({std::string(field(line, "phase")),
                     static_cast<std::uint32_t>(field_u64(line, "tid")),
                     field_u64(line, "start_us"), field_u64(line, "dur_us")});
  }
  return spans;
}

double total_s(const std::vector<Span>& spans, const std::string& phase) {
  std::uint64_t us = 0;
  for (const Span& span : spans) {
    if (span.phase == phase) us += span.dur_us;
  }
  return static_cast<double>(us) * 1e-6;
}

double span_count(const std::vector<Span>& spans, const std::string& phase) {
  return static_cast<double>(std::count_if(
      spans.begin(), spans.end(), [&](const Span& span) { return span.phase == phase; }));
}

double unattributed_ratio(const std::vector<Span>& spans, std::uint64_t begin_us,
                          std::uint64_t end_us) {
  if (end_us <= begin_us) return 0.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const Span& span : spans) {
    if (span.tid != 0) continue;
    const std::uint64_t lo = std::max(span.start_us, begin_us);
    const std::uint64_t hi = std::min(span.start_us + span.dur_us, end_us);
    if (lo < hi) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = begin_us;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  return 1.0 - static_cast<double>(covered) / static_cast<double>(end_us - begin_us);
}

}  // namespace perfbench
