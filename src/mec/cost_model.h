// Closed-form delay and energy models (Eqs. 4, 5, 7, 8, 9 of the paper).
#pragma once

#include "mec/channel.h"
#include "mec/device.h"

namespace helcfl::mec {

/// T^cal = pi * |D| / f  (Eq. 4).  Requires f > 0.
double compute_delay_s(const Device& device, double f_hz);

/// E^cal = alpha/2 * pi * |D| * f^2  (Eq. 5).
double compute_energy_j(const Device& device, double f_hz);

/// T^com = C_model / R  (Eq. 7).
double upload_delay_s(const Device& device, const Channel& channel,
                      double model_size_bits);

/// E^com = p * T^com  (Eq. 8).
double upload_energy_j(const Device& device, const Channel& channel,
                       double model_size_bits);

}  // namespace helcfl::mec
