#include "mec/cost_model.h"

#include <cassert>
#include <stdexcept>

namespace helcfl::mec {

double compute_delay_s(const Device& device, double f_hz) {
  if (f_hz <= 0.0) throw std::invalid_argument("compute_delay_s: f must be > 0");
  return device.total_cycles() / f_hz;
}

double compute_energy_j(const Device& device, double f_hz) {
  if (f_hz < 0.0) throw std::invalid_argument("compute_energy_j: f must be >= 0");
  return device.switched_capacitance / 2.0 * device.total_cycles() * f_hz * f_hz;
}

double upload_delay_s(const Device& device, const Channel& channel,
                      double model_size_bits) {
  const double rate = channel.upload_rate_bps(device);
  assert(rate > 0.0);
  return model_size_bits / rate;
}

double upload_energy_j(const Device& device, const Channel& channel,
                       double model_size_bits) {
  return device.tx_power_w * upload_delay_s(device, channel, model_size_bits);
}

}  // namespace helcfl::mec
