#include "svc/wire_faults.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace helcfl::svc {

namespace {

void check_rate(double value, const char* name) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("WireFaultOptions: ") + name +
                                " = " + std::to_string(value) +
                                " must be a probability in [0, 1]");
  }
}

}  // namespace

void WireFaultOptions::validate() const {
  check_rate(drop_rate, "drop_rate");
  check_rate(corrupt_rate, "corrupt_rate");
  check_rate(duplicate_rate, "duplicate_rate");
  check_rate(delay_rate, "delay_rate");
  if (delay_rate > 0.0 && max_delay_ticks == 0) {
    throw std::invalid_argument(
        "WireFaultOptions: max_delay_ticks must be >= 1 when delay_rate > 0");
  }
}

WireFaultInjector::WireFaultInjector(const WireFaultOptions& options,
                                     util::Rng base)
    : options_(options), base_(std::move(base)) {
  options_.validate();
}

WireFaultInjector::Plan WireFaultInjector::plan_frame() {
  const std::uint64_t index = frame_counter_++;
  Plan plan;
  if (!options_.any_fault_possible()) {
    plan.copies = 1;
    return plan;
  }
  // One independent stream per frame; the draw order below is fixed, so a
  // frame's fate is a pure function of (seed, send index).
  util::Rng rng = base_.fork(index);
  if (options_.drop_rate > 0.0 && rng.bernoulli(options_.drop_rate)) {
    plan.dropped = true;
    return plan;
  }
  plan.copies =
      (options_.duplicate_rate > 0.0 && rng.bernoulli(options_.duplicate_rate))
          ? 2
          : 1;
  for (std::size_t c = 0; c < plan.copies; ++c) {
    Delivery& d = plan.delivery[c];
    if (options_.corrupt_rate > 0.0 && rng.bernoulli(options_.corrupt_rate)) {
      d.corrupted = true;
      d.corrupt_index = static_cast<std::size_t>(rng.next_u64());
      d.corrupt_mask = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (options_.delay_rate > 0.0 && rng.bernoulli(options_.delay_rate)) {
      d.delay_ticks = static_cast<std::uint64_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(options_.max_delay_ticks)));
    }
  }
  return plan;
}

void FaultyLink::send(std::span<const std::uint8_t> frame,
                      std::uint64_t now_tick) {
  const WireFaultInjector::Plan plan = injector_.plan_frame();
  if (plan.dropped) {
    ++dropped_;
    return;
  }
  if (plan.copies == 2) ++duplicated_;
  for (std::size_t c = 0; c < plan.copies; ++c) {
    const WireFaultInjector::Delivery& d = plan.delivery[c];
    InFlight item;
    item.due_tick = now_tick + d.delay_ticks;
    item.order = next_order_++;
    item.bytes.assign(frame.begin(), frame.end());
    if (d.corrupted && !item.bytes.empty()) {
      item.bytes[d.corrupt_index % item.bytes.size()] ^= d.corrupt_mask;
      ++corrupted_;
    }
    if (d.delay_ticks > 0) ++delayed_;
    queue_.push(std::move(item));
  }
}

std::vector<std::vector<std::uint8_t>> FaultyLink::advance(
    std::uint64_t now_tick) {
  std::vector<std::vector<std::uint8_t>> due;
  while (!queue_.empty() && queue_.top().due_tick <= now_tick) {
    // priority_queue::top() is const; the copy is unavoidable but the
    // frames are small and the queues shallow.
    due.push_back(queue_.top().bytes);
    queue_.pop();
  }
  return due;
}

}  // namespace helcfl::svc
