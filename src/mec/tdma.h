// TDMA uplink serialization (Fig. 1 of the paper).
//
// Selected users compute in parallel but share one uplink: a user whose
// local update finishes while another user is still uploading must wait.
// schedule_uploads() reconstructs that timeline: grants are issued in
// compute-completion order (ties broken by position), and each user's
// *slack* is the waiting gap that HELCFL's Algorithm 3 reclaims by slowing
// the CPU.  Uplink::grant() is the one grant rule: schedule_uploads() applies
// it to a whole barrier cohort, and the async engine (fl/async_trainer.cpp)
// applies it one compute completion at a time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace helcfl::mec {

/// One user's segment of the round timeline.  Times are seconds from the
/// start of the round.
struct UploadSlot {
  std::size_t index = 0;        ///< position in the input spans
  double compute_end = 0.0;     ///< when the local update finishes
  double upload_start = 0.0;    ///< when the uplink grant begins
  double upload_end = 0.0;      ///< upload_start + upload duration
  double slack_s = 0.0;         ///< upload_start - compute_end (idle wait)
};

/// The shared uplink as a rolling cursor.
struct Uplink {
  double free_at = 0.0;  ///< when the current holder releases the channel

  /// Grants the channel to `index`, whose local update finished at
  /// `compute_end`, for `duration` seconds: it transmits as soon as both it
  /// and the channel are ready.  Advances free_at to the slot's upload_end.
  UploadSlot grant(std::size_t index, double compute_end, double duration);
};

/// The full round timeline.
struct TdmaSchedule {
  std::vector<UploadSlot> slots;  ///< in grant order
  double round_delay_s = 0.0;     ///< max upload_end (Eq. 10 under TDMA)
  double total_slack_s = 0.0;     ///< sum of all users' slack
};

/// Serializes the uploads of users with the given compute delays and upload
/// durations.  Spans must have equal length; all entries non-negative.
TdmaSchedule schedule_uploads(std::span<const double> compute_delays,
                              std::span<const double> upload_durations);

}  // namespace helcfl::mec
