// Steps shared by the two round engines: the barrier loop of
// fl::FederatedTrainer (fl/trainer.cpp) and the event loop of
// fl::AsyncTrainer (fl/async_trainer.cpp).  Internal to
// src/fl/; not a public API.
//
// Each engine keeps its own loop — churn, fading and selection advance per
// barrier round in one and per server step in the other — and calls these
// pieces for what both do the same way: construction checks, per-run
// set-up, the common half of checkpoint resume and snapshot, one client's
// execution, the cohort fan-out, the tdma and fault trace events,
// evaluation, the per-step metrics export and the stop checks.
// tests/test_engine_golden.cpp pins both engines' weights, CSV bytes and
// traces, so a change here that moves either engine fails there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/metrics.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "mec/battery.h"
#include "mec/channel.h"
#include "mec/device.h"
#include "mec/fading.h"
#include "mec/faults.h"
#include "mec/tdma.h"
#include "nn/sequential.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helcfl::fl::detail {

/// What an engine borrows, and what it builds once at construction.  The
/// constructor validates the options and the device/partition pairing and
/// throws std::invalid_argument naming `engine` on the first mismatch.
struct RoundWorld {
  RoundWorld(std::string_view engine, nn::Sequential& model, const data::Dataset& train,
             const data::Dataset& test, const data::Partition& partition,
             std::span<const mec::Device> devices, const mec::Channel& channel,
             sched::SelectionStrategy& strategy, TrainerOptions options);

  std::string_view engine;  ///< names the engine in errors and logs
  nn::Sequential& model;
  const data::Dataset& test;
  std::span<const mec::Device> devices;
  mec::Channel channel;
  sched::SelectionStrategy& strategy;
  TrainerOptions options;
  std::vector<sched::UserInfo> users;
  std::vector<data::Batch> user_data;  ///< gathered once at construction
  mec::BatteryFleet batteries;         ///< empty when batteries disabled
};

/// One selected client's inputs, resolved on the coordinator thread in
/// selection (dispatch) order.
struct ClientTask {
  std::size_t user = 0;
  double frequency_hz = 0.0;
  double fade_multiplier = 1.0;  ///< this step's channel-gain multiplier
  util::Rng rng;                 ///< pre-forked mini-batch stream
  mec::ClientFaults faults;      ///< the injector's draw
};

/// Everything one dispatch produces, computed independently of every other
/// client so a cohort can train in parallel.
struct ClientOutcome {
  mec::ClientFaults faults;        ///< copied from the task
  bool trained = false;            ///< local update produced (false = crashed)
  ClientUpdate update;             ///< weights already post-compression
  double compute_delay_s = 0.0;    ///< Eq. 4, stretched by a straggler
  double upload_duration_s = 0.0;  ///< one TDMA attempt (Eq. 7)
  double occupancy_s = 0.0;        ///< uplink hold: every attempt + backoff gaps
  std::size_t attempts = 0;        ///< transmissions made (0 for crashed clients)
  double energy_j = 0.0;           ///< all cycles and transmissions, Eqs. (5)+(8)
};

/// The per-run scaffold both engines build at the top of run(): the
/// instruments, the mini-batch / fading / fault streams (forked off the
/// seed, so every run() starts from the same cursors), the worker pool with
/// one model replica per worker (DESIGN.md §7), the evaluation plan, and
/// the running totals a checkpoint carries.  Constructing it resets the
/// strategy.
struct RunState {
  explicit RunState(RoundWorld& world);

  RoundWorld& world;
  obs::Tracer* const tracer;
  obs::PhaseProfiler* const profiler;
  obs::Registry* const registry;
  const bool batteries_enabled;
  const std::size_t max_attempts;  ///< 1 + max_upload_retries
  util::Rng batch_rng;
  mec::FadingProcess fading;
  mec::FaultInjector injector;
  util::ThreadPool pool;
  std::vector<std::unique_ptr<nn::Sequential>> replicas;  ///< one per worker
  std::vector<nn::Sequential*> eval_models;
  std::vector<float> global_weights;
  const EvalPlan eval_plan;
  TrainingHistory history;
  double cum_energy = 0.0;
  double cum_wasted_energy = 0.0;
  double best_accuracy = -1.0;
  /// Kernel scratch growths already exported (`kernel.scratch_reallocs` is
  /// a per-step delta of the process-global counter).
  std::uint64_t scratch_reported = 0;

  /// True when a tracer is attached and passes `level`.
  bool tracing(obs::TraceLevel level) const;

  /// Devices with charge left (the whole fleet without batteries).
  std::size_t alive_users() const;

  /// True when `user` is present (churn) and charged (batteries).
  bool selectable(std::size_t user) const;

  /// Checkpoint resume (DESIGN.md §11), parse-then-commit.  Reads
  /// options.resume_from and checks it was written by this engine kind for
  /// this fleet, seed, strategy, model and battery set-up.  Then it parses:
  /// `parse_engine` first (the engine's own frame, into the caller's
  /// locals), then the fault injector, fading, batch RNG and batteries, and
  /// the strategy last — it parses its whole payload before touching a
  /// member.  Every failure throws CheckpointError naming the file, with
  /// the trainer and its model untouched.  On success it commits the common
  /// state (batteries, global weights, records, energy totals,
  /// best accuracy) and returns the checkpoint so the caller can commit its
  /// own state; nothing after the parse throws.  nullopt = fresh run.
  std::optional<Checkpoint> resume(
      bool async_engine, const std::function<void(const Checkpoint&)>& parse_engine = {});

  /// run_start, with the engine's `extra` fields after the common ones.
  void emit_run_start(std::span<const obs::Field> extra = {}) const;

  /// checkpoint_resume after a successful resume().
  void emit_resumed(std::size_t round, double cum_delay,
                    std::span<const obs::Field> extra = {}) const;

  /// The checkpoint fields both engines write: identity, progress, model,
  /// stream cursors, component state and the records so far.
  Checkpoint snapshot(std::uint64_t next_round, double cum_delay) const;

  /// Writes `ckpt` atomically to checkpoint_path with every "{round}" token
  /// expanded to `token`, then emits checkpoint_write for `trace_round`.
  void write_checkpoint(const Checkpoint& ckpt, std::size_t token,
                        std::size_t trace_round) const;

  /// Checks pick `k` of `decision` (selectable in `fleet`, frequency inside
  /// the device's DVFS range; std::logic_error otherwise) and resolves its
  /// task: the current fading multiplier, the mini-batch stream forked at
  /// `stream_key`, and the fault draw keyed on (`fault_key`, user).
  ClientTask resolve_client(const sched::FleetView& fleet,
                            const sched::Decision& decision, std::size_t k,
                            std::uint64_t stream_key, std::size_t fault_key) const;

  /// Trains a cohort: one outcome per task, in task order, each from the
  /// current global weights and persistent buffers.  Runs inline or fans out
  /// over the pool under a `local_training` span; `finish` (optional) runs
  /// on the outcome inside the client's task.  Every task is joined before
  /// any failure escapes, and the failures come back as one
  /// std::runtime_error naming each failed client.  `unit` and `index`
  /// ("round" 3, "step" 7) label spans and errors.
  std::vector<ClientOutcome> train_cohort(
      std::span<const ClientTask> tasks, std::string_view unit, std::size_t index,
      const std::function<void(ClientOutcome&)>& finish = {});

  /// One `tdma` decision event: `user`'s uplink grant `slot` (the Fig. 1
  /// timeline) and what became of the upload.
  void emit_tdma(std::size_t round, std::size_t user, std::size_t attempts,
                 const mec::UploadSlot& slot, bool accepted, bool dropped_late) const;

  /// One `fault` round event: round, user and `kind`, then `detail`.  Each
  /// engine decides which kinds it emits and in what order.
  void emit_fault(std::size_t round, std::size_t user, std::string_view kind,
                  std::initializer_list<obs::Field> detail) const;

  /// Records a round that churn emptied: nothing selected, quorum failed.
  void skip_round(std::size_t round, double cum_delay, std::size_t available);

  /// Closes one barrier round or server step: evaluates the global model
  /// when due (every eval_every-th index, the `last` one, or past the
  /// deadline), keeps the running best accuracy, exports the step's
  /// counters when a registry is attached, emits round_end, and appends the
  /// record.  `trained` counts the local updates that finished this step.
  void close_step(RoundRecord record, std::size_t trained, bool last);

  /// True when the run stops after the last record of the history: deadline
  /// passed, target reached, or Algorithm 1's convergence exit (the
  /// training-loss spread over the last convergence_window records fell
  /// below epsilon).  `unit` ("round", "step") labels the log line.  A
  /// resumed run asks it again of the restored history wherever the run
  /// that wrote the snapshot asked it after that record, so a run that
  /// stopped there resumes into a finished run.
  bool should_stop(std::string_view unit) const;

  /// Emits run_end, flushes the tracer, leaves the final global model loaded
  /// in the borrowed model, and hands back the history.
  TrainingHistory finish(double cum_delay);
};

}  // namespace helcfl::fl::detail
