// Event-driven async round engine (FedBuff-style; DESIGN.md §16,
// docs/ASYNC.md).
//
// fl/trainer.cpp advances time one round barrier at a time: every selected
// client must land (or be cut off) before the server aggregates, so a
// single straggler gates the whole cohort.  AsyncTrainer drops the barrier:
// a global clock advances event by event through fl::EventQueue — client
// compute completions, TDMA upload completions, crash burn-outs, and churn
// boundaries — and the server aggregates as soon as the first K updates
// arrive, applying the weighted-mean *delta* from each client's dispatch
// base, discounted by its staleness
// (weight ∝ num_samples / (1 + staleness)^β), and re-dispatching freed
// devices immediately through the existing SelectionStrategy machinery.
//
// AsyncTrainer runs the async engine only; the barrier engine is
// fl::FederatedTrainer (sim::run_experiment picks one by AsyncOptions::mode).
// Both engines share their client execution, TDMA grant rule, resume,
// checkpoint, trace, evaluation and metrics steps (fl/round_steps.h,
// mec/tdma.h); tests/test_engine_golden.cpp pins each engine's weights, CSV
// bytes and trace to recorded digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/metrics.h"
#include "fl/trainer.h"
#include "mec/channel.h"
#include "mec/device.h"
#include "nn/sequential.h"
#include "sched/scheduler.h"

namespace helcfl::fl {

/// Knobs of the async engine, layered on top of TrainerOptions.
struct AsyncOptions {
  enum class Mode {
    kSync,   ///< barrier engine: fl::FederatedTrainer (AsyncTrainer rejects it)
    kAsync,  ///< event-driven: buffered staleness-discounted aggregation
  };

  Mode mode = Mode::kSync;

  /// FedBuff's K: the server aggregates once this many updates have
  /// arrived.  0 = the size of the first dispatched cohort (the semi-async
  /// regime: cohort-sized buffers without a barrier — slow devices keep
  /// computing across server steps instead of gating them).
  std::size_t buffer_k = 0;

  /// Staleness discount exponent β: an update trained on the model of
  /// `staleness` aggregations ago enters FedAvg with weight
  /// num_samples / (1 + staleness)^β.  0 disables discounting.
  double staleness_beta = 0.5;

  /// Bounded staleness: arrivals staler than this many server steps are
  /// dropped (their energy is wasted, `async.dropped_stale`).  0 = keep
  /// every arrival.
  std::size_t staleness_bound = 0;

  /// Throws std::invalid_argument on the first inconsistent knob.
  void validate() const;
};

/// Parses "sync" | "async" (helcfl_cli --mode); throws on anything else.
AsyncOptions::Mode parse_async_mode(const std::string& text);
std::string async_mode_name(AsyncOptions::Mode mode);

/// Discrete-event FL trainer over a simulated MEC fleet.  Construction
/// mirrors FederatedTrainer (same borrow contract: model, datasets,
/// devices, channel, and strategy must outlive the trainer) and throws
/// std::invalid_argument when async_options.mode is kSync.
class AsyncTrainer {
 public:
  AsyncTrainer(nn::Sequential& model, const data::Dataset& train,
               const data::Dataset& test, const data::Partition& partition,
               std::span<const mec::Device> devices, const mec::Channel& channel,
               sched::SelectionStrategy& strategy, TrainerOptions options,
               AsyncOptions async_options);
  ~AsyncTrainer();

  /// Runs the engine to completion and returns the trace: one RoundRecord
  /// per server step (aggregation).  The final global model remains loaded
  /// in the model passed at construction.
  TrainingHistory run();

 private:
  AsyncOptions async_;
  std::unique_ptr<detail::RoundWorld> world_;
};

}  // namespace helcfl::fl
