// The utility function of HELCFL (Eq. 20 of the paper):
//   u_q(alpha_q, T^cal, T^com) = eta^alpha_q * 1 / (T^cal + T^com)
// with decay coefficient eta in (0, 1] and appearance counter alpha_q.
//
// Users with short training delay have high utility and are selected
// preferentially; every selection increments alpha_q, multiplying future
// utility by eta, so slow users eventually overtake and their data enters
// training (the accuracy mechanism of Section V-A).
#pragma once

#include <cstddef>

namespace helcfl::core {

/// Evaluates Eq. (20).  Requires eta in (0, 1] and a positive total delay;
/// throws std::invalid_argument otherwise.  eta = 1 disables decay
/// (u_q = 1/delay regardless of alpha_q — pure fastest-first selection,
/// the tie-heavy degenerate regime the differential harness exercises).
double utility(std::size_t appearance_count, double t_cal_s, double t_com_s,
               double eta);

}  // namespace helcfl::core
