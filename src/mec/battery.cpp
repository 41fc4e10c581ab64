#include "mec/battery.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace helcfl::mec {

double Battery::drain(double joules) {
  if (joules < 0.0) throw std::invalid_argument("Battery::drain: negative energy");
  if (is_mains_powered()) return joules;
  const double drained = std::min(joules, remaining_j_);
  remaining_j_ -= drained;
  return drained;
}

void Battery::restore_remaining_j(double joules) {
  if (is_mains_powered()) return;
  remaining_j_ = std::clamp(joules, 0.0, capacity_j_);
}

BatteryFleet::BatteryFleet(std::size_t n_devices, double capacity_j)
    : batteries_(n_devices, Battery(capacity_j)), alive_(n_devices, 1) {}

double BatteryFleet::drain(std::size_t i, double joules) {
  const double drained = batteries_.at(i).drain(joules);
  if (batteries_[i].depleted()) alive_[i] = 0;
  return drained;
}

std::size_t BatteryFleet::alive_count() const {
  std::size_t count = 0;
  for (const auto a : alive_) count += a;
  return count;
}

void BatteryFleet::save_state(util::ByteWriter& out) const {
  out.u64(batteries_.size());
  for (const auto& battery : batteries_) {
    out.f64(battery.capacity_j());
    out.f64(battery.remaining_j());
  }
}

void BatteryFleet::load_state(util::ByteReader& in) {
  const std::uint64_t n = in.u64();
  if (n != batteries_.size()) {
    throw util::SerialError("BatteryFleet: state was saved for " + std::to_string(n) +
                            " batteries, this fleet has " +
                            std::to_string(batteries_.size()));
  }
  std::vector<double> remaining(batteries_.size());
  for (std::size_t i = 0; i < batteries_.size(); ++i) {
    const double capacity = in.f64();
    remaining[i] = in.f64();
    if (capacity != batteries_[i].capacity_j()) {
      throw util::SerialError("BatteryFleet: capacity mismatch at battery " +
                              std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < batteries_.size(); ++i) {
    batteries_[i].restore_remaining_j(remaining[i]);
    alive_[i] = batteries_[i].depleted() ? 0 : 1;
  }
}

}  // namespace helcfl::mec
