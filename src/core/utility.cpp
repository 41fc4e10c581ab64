#include "core/utility.h"

#include <cmath>
#include <stdexcept>

namespace helcfl::core {

double utility(std::size_t appearance_count, double t_cal_s, double t_com_s,
               double eta) {
  if (eta <= 0.0 || eta > 1.0) {
    throw std::invalid_argument("utility: eta must be in (0, 1]");
  }
  const double total_delay = t_cal_s + t_com_s;
  if (total_delay <= 0.0) {
    throw std::invalid_argument("utility: total delay must be positive");
  }
  return std::pow(eta, static_cast<double>(appearance_count)) / total_delay;
}

}  // namespace helcfl::core
