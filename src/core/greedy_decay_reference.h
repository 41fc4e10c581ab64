// The retained naive Algorithm 2 implementation: recompute every
// selectable user's Eq. (20) utility and std::stable_sort all of them,
// every round — O(Q log Q).
//
// This is the pre-index GreedyDecaySelector, kept verbatim as the
// *differential oracle*: tests/test_selection_differential.cpp drives it
// and the incremental-index selector through thousands of randomized
// select/decay/revoke/depletion rounds and requires pick-for-pick,
// rank-for-rank, utility-bit-for-bit agreement; bench_sched_scale measures
// the index speedup against it.  Its behaviour is the selection contract —
// do not "optimize" it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/greedy_decay_selection.h"  // SelectionTraceEntry
#include "sched/scheduler.h"

namespace helcfl::core {

class GreedyDecayReference {
 public:
  /// Same parameter domain as GreedyDecaySelector: C in (0, 1],
  /// eta in (0, 1] (η = 1 disables decay — the tie-heavy regime).
  GreedyDecayReference(double fraction, double eta);

  /// The original Algorithm 2 lines 8-19: full utility recompute, full
  /// stable sort (ties broken by lower index), top-N, counter increment.
  std::vector<std::size_t> select(const sched::FleetView& fleet,
                                  std::vector<SelectionTraceEntry>* trace = nullptr);

  std::span<const std::size_t> appearance_counts() const { return counters_; }
  void revoke_appearance(std::size_t user);

 private:
  double fraction_;
  double eta_;
  std::vector<std::size_t> counters_;
};

}  // namespace helcfl::core
