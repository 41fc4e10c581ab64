// Versioned binary training snapshots (checkpoint/resume; DESIGN.md §11).
//
// A long experiment writes a Checkpoint every `checkpoint_every` rounds; a
// later process resumes from it and continues the run *bitwise identically*
// to one that never stopped: final weights, metrics CSV, and the trace
// suffix all match (tests/resume_fixtures.h is the harness that proves it).
// That works because everything stochastic in the trainer is either derived
// from the seed per (round, user) — the mini-batch and fault client streams
// — or is a sequential cursor captured here: the churn and fading RNGs, the
// strategy's own stream and counters, and the battery charge.
//
// File layout: the payload sealed in util::Envelope (util/serial.h, shared
// with the scheduler service's snapshots) under magic "HCKP".  Readers
// accept only version == kVersion; bump it on any payload layout change and
// state the change in docs/CHECKPOINT.md, mirroring the trace-schema policy
// of docs/OBSERVABILITY.md.
//
// What is deliberately NOT stored: client optimizer slots (local momentum
// state is round-scoped — fl/client.h rebuilds it per local update, so
// there is nothing to persist), pool/replica structure (rebuilt from
// TrainerOptions; resume is thread-count invariant), and observability
// counters (a resumed run's Registry restarts at zero; the trace instead
// records the golden run's `seq` at save time so traces can be compared
// suffix-to-suffix).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/metrics.h"
#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::fl {

/// Thrown on any malformed, corrupt, mismatched, or unreadable checkpoint.
/// Every message names what failed; none of these errors leaves a trainer
/// partially restored.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One complete training snapshot.  FederatedTrainer fills and consumes
/// this; tests build them directly to probe the format.
struct Checkpoint {
  static constexpr std::uint32_t kMagic = 0x504b4348;  ///< "HCKP" read LE
  /// v2: the HELCFL strategy payload gained the utility-index frame
  /// (initialized flag + delay cache) after the appearance counters.
  /// v3: the payload gained the async-engine frame (async_enabled +
  /// async_state) between the battery state and the round records — the
  /// event queue, in-flight clients, and aggregation buffer of a mid-flight
  /// fl::AsyncTrainer snapshot (DESIGN.md §16, docs/ASYNC.md).
  /// v4: the async frame's buffer holds full dispatch records (the same
  /// record as an in-flight client), and each record stores its TDMA grant
  /// as an mec::UploadSlot.
  static constexpr std::uint32_t kVersion = 4;

  // --- identity: rejected on mismatch at resume ---
  std::uint64_t seed = 0;       ///< TrainerOptions::seed of the saved run
  std::uint64_t n_users = 0;    ///< fleet size of the saved run

  // --- progress ---
  std::uint64_t next_round = 0;  ///< first round the resumed run executes
  double cum_delay_s = 0.0;
  double cum_energy_j = 0.0;
  double cum_wasted_energy_j = 0.0;
  double best_accuracy = -1.0;
  /// Tracer sequence number at save time: the golden run's trace lines with
  /// seq >= trace_seq are the ones a resumed run re-emits (after its own
  /// run_start/checkpoint_resume preamble).
  std::uint64_t trace_seq = 0;

  // --- model ---
  std::vector<float> global_weights;  ///< via nn/serialize.h
  /// Persistent non-trainable model state.  No model has any, so writers
  /// leave it empty and resume rejects a non-empty one; the field stays so
  /// the v4 layout is unchanged.
  std::vector<float> model_state;

  // --- stream cursors and component state ---
  util::Rng batch_rng;                     ///< mini-batch fork parent
  std::string strategy_name;               ///< for error messages
  std::vector<std::uint8_t> strategy_state;  ///< SelectionStrategy::save_state frame
  std::vector<std::uint8_t> injector_state;  ///< FaultInjector::save_state
  std::vector<std::uint8_t> fading_state;    ///< FadingProcess::save_state
  bool batteries_enabled = false;
  std::vector<std::uint8_t> battery_state;   ///< BatteryFleet::save_state

  // --- async engine (v3+; DESIGN.md §16) ---
  /// True iff this snapshot was written by fl::AsyncTrainer.  A
  /// FederatedTrainer run writes false with an empty async_state; resuming
  /// a snapshot into the other engine is rejected before any mutation.
  bool async_enabled = false;
  /// AsyncTrainer's mid-flight frame: event queue, global clock, uplink
  /// cursor, and the dispatch records in flight and in the partial
  /// aggregation buffer.
  std::vector<std::uint8_t> async_state;

  // --- accumulated metrics: replayed so the resumed CSV is byte-identical ---
  std::vector<RoundRecord> records;

  /// Full file image: header + checksummed payload.
  std::vector<std::uint8_t> serialize() const;

  /// Parses a file image.  Throws CheckpointError on any rejection of
  /// util::unseal (truncation, bad magic, foreign version, trailing bytes,
  /// checksum mismatch) or a malformed payload.
  static Checkpoint deserialize(std::span<const std::uint8_t> bytes);

  /// Atomic write: serializes to `path` + ".tmp" then renames over `path`,
  /// so a crash mid-write never leaves a torn checkpoint under `path`.
  void write_file(const std::string& path) const;

  /// Reads and parses `path`.  Throws CheckpointError (file unreadable or
  /// any deserialize() failure).
  static Checkpoint read_file(const std::string& path);
};

}  // namespace helcfl::fl
