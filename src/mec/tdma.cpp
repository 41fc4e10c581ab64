#include "mec/tdma.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace helcfl::mec {

UploadSlot Uplink::grant(std::size_t index, double compute_end, double duration) {
  UploadSlot slot;
  slot.index = index;
  slot.compute_end = compute_end;
  slot.upload_start = std::max(compute_end, free_at);
  slot.upload_end = slot.upload_start + duration;
  slot.slack_s = slot.upload_start - compute_end;
  free_at = slot.upload_end;
  return slot;
}

TdmaSchedule schedule_uploads(std::span<const double> compute_delays,
                              std::span<const double> upload_durations) {
  if (compute_delays.size() != upload_durations.size()) {
    throw std::invalid_argument("schedule_uploads: span length mismatch");
  }
  for (std::size_t i = 0; i < compute_delays.size(); ++i) {
    if (compute_delays[i] < 0.0 || upload_durations[i] < 0.0) {
      throw std::invalid_argument("schedule_uploads: negative delay");
    }
  }

  // Grant order: by compute completion, ties by index (deterministic).
  std::vector<std::size_t> order(compute_delays.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return compute_delays[a] < compute_delays[b];
  });

  TdmaSchedule schedule;
  schedule.slots.reserve(order.size());
  Uplink uplink;
  for (const std::size_t i : order) {
    const UploadSlot slot = uplink.grant(i, compute_delays[i], upload_durations[i]);
    schedule.total_slack_s += slot.slack_s;
    schedule.round_delay_s = std::max(schedule.round_delay_s, slot.upload_end);
    schedule.slots.push_back(slot);
  }
  return schedule;
}

}  // namespace helcfl::mec
