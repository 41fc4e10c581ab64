#include "fl/round_steps.h"

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "mec/cost_model.h"
#include "nn/compression.h"
#include "nn/serialize.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "tensor/ops.h"
#include "util/log.h"
#include "util/serial.h"

namespace helcfl::fl::detail {

RoundWorld::RoundWorld(std::string_view engine_name, nn::Sequential& model_ref,
                       const data::Dataset& train, const data::Dataset& test_set,
                       const data::Partition& partition,
                       std::span<const mec::Device> fleet_devices,
                       const mec::Channel& uplink,
                       sched::SelectionStrategy& selection, TrainerOptions trainer_options)
    : engine(engine_name),
      model(model_ref),
      test(test_set),
      devices(fleet_devices),
      channel(uplink),
      strategy(selection),
      options(std::move(trainer_options)) {
  options.validate(devices.size());
  const std::string who(engine);
  if (devices.size() != partition.size()) {
    throw std::invalid_argument(who + ": device/partition size mismatch");
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (devices[i].num_samples != partition[i].size()) {
      throw std::invalid_argument(
          who + ": device " + std::to_string(i) + " declares " +
          std::to_string(devices[i].num_samples) + " samples but partition has " +
          std::to_string(partition[i].size()));
    }
  }

  // Initialization phase (Algorithm 1 lines 1-2): the FLCC learns every
  // device's resource information and derives the delays.
  users = sched::build_user_info(devices, channel, options.model_size_bits);

  // Gather each user's local data once; rounds reuse the cached batches.
  user_data.reserve(partition.size());
  for (const auto& indices : partition) {
    user_data.push_back(train.gather(indices));
  }

  if (options.battery_capacity_j > 0.0) {
    batteries = mec::BatteryFleet(devices.size(), options.battery_capacity_j);
  }
}

RunState::RunState(RoundWorld& w)
    : world(w),
      // Observability sinks (DESIGN.md §9): every use is read-only — a null
      // check followed by emitting values the step already computed.
      tracer(w.options.obs.tracer),
      profiler(w.options.obs.profiler),
      registry(w.options.obs.registry),
      batteries_enabled(w.batteries.size() > 0),
      max_attempts(1 + w.options.max_upload_retries),
      batch_rng(w.options.seed),
      fading(w.users.size(), w.options.fading, util::Rng(w.options.seed).fork(0xFAD1A6)),
      // Fault streams are forked off the same seed but independent of the
      // mini-batch streams, so enabling faults never perturbs what a
      // surviving client trains on.
      injector(w.users.size(), w.options.faults, util::Rng(w.options.seed).fork(0xFA0175)),
      // num_threads <= 1 spawns no workers and every client trains inline
      // on the borrowed model — the reference sequential path.
      pool(util::ThreadPool::resolve_thread_count(w.options.num_threads)),
      global_weights(nn::extract_parameters(w.model)),
      // Batched evaluation (docs/KERNELS.md): the test set is gathered into
      // batch tensors once and reused every eval step.
      eval_plan(make_eval_plan(w.test, w.options.eval_batch)),
      scratch_reported(tensor::scratch_realloc_count()) {
  world.strategy.reset();
  world.strategy.set_instruments(world.options.obs);
  injector.set_tracer(tracer);
  // Replicas never outlive the pool that indexes them.
  replicas.reserve(pool.worker_count());
  for (std::size_t i = 0; i < pool.worker_count(); ++i) {
    replicas.push_back(std::make_unique<nn::Sequential>(world.model));
    eval_models.push_back(replicas.back().get());
  }
}

bool RunState::tracing(obs::TraceLevel level) const {
  return tracer != nullptr && tracer->enabled(level);
}

std::size_t RunState::alive_users() const {
  return batteries_enabled ? world.batteries.alive_count() : world.users.size();
}

bool RunState::selectable(std::size_t user) const {
  const std::span<const std::uint8_t> churn_mask = injector.availability();
  return (churn_mask.empty() || churn_mask[user] != 0) &&
         (!batteries_enabled || world.batteries.alive_mask()[user] != 0);
}

std::optional<Checkpoint> RunState::resume(
    bool async_engine, const std::function<void(const Checkpoint&)>& parse_engine) {
  const std::string& path = world.options.resume_from;
  if (path.empty()) return std::nullopt;
  Checkpoint ckpt = Checkpoint::read_file(path);
  sched::SelectionStrategy& strategy = world.strategy;
  if (ckpt.n_users != world.users.size()) {
    throw CheckpointError("'" + path + "': saved for " + std::to_string(ckpt.n_users) +
                          " users, this trainer has " +
                          std::to_string(world.users.size()));
  }
  if (ckpt.seed != world.options.seed) {
    throw CheckpointError("'" + path + "': saved under seed " +
                          std::to_string(ckpt.seed) + ", this trainer uses seed " +
                          std::to_string(world.options.seed) +
                          " — resuming would silently diverge from the original run");
  }
  if (ckpt.strategy_name != strategy.name()) {
    throw CheckpointError("'" + path + "': saved with strategy '" + ckpt.strategy_name +
                          "', this trainer uses '" + strategy.name() + "'");
  }
  if (ckpt.global_weights.size() != global_weights.size()) {
    throw CheckpointError("'" + path + "': saved model has " +
                          std::to_string(ckpt.global_weights.size()) +
                          " parameters, this trainer's model has " +
                          std::to_string(global_weights.size()));
  }
  if (!ckpt.model_state.empty()) {
    throw CheckpointError("'" + path + "': saved model has " +
                          std::to_string(ckpt.model_state.size()) +
                          " persistent state scalars, this trainer's model has 0");
  }
  if (ckpt.batteries_enabled != batteries_enabled) {
    throw CheckpointError(
        "'" + path + "': saved with batteries " +
        std::string(ckpt.batteries_enabled ? "enabled" : "disabled") +
        ", this trainer has them " +
        std::string(batteries_enabled ? "enabled" : "disabled"));
  }
  if (ckpt.async_enabled != async_engine) {
    throw CheckpointError(
        "'" + path + "': " +
        (ckpt.async_enabled
             ? "saved mid-flight by the async engine; resume it with an "
               "async-mode fl::AsyncTrainer (docs/ASYNC.md)"
             : "saved by the sync engine; resume it with FederatedTrainer "
               "(docs/ASYNC.md)"));
  }

  mec::BatteryFleet restored_batteries;
  try {
    if (parse_engine) parse_engine(ckpt);
    // Run-local cursors first (reconstructed on every run(), so partial
    // mutation cannot outlive a failure)...
    util::ByteReader injector_in(ckpt.injector_state);
    injector.load_state(injector_in);
    injector_in.expect_end("checkpoint injector state");
    util::ByteReader fading_in(ckpt.fading_state);
    fading.load_state(fading_in);
    fading_in.expect_end("checkpoint fading state");
    batch_rng = ckpt.batch_rng;
    // ...then the durable battery state parsed into a copy...
    if (batteries_enabled) {
      restored_batteries = world.batteries;
      util::ByteReader battery_in(ckpt.battery_state);
      restored_batteries.load_state(battery_in);
      battery_in.expect_end("checkpoint battery state");
    }
    // ...and the strategy last: it parses its whole payload before
    // touching any member (scheduler.h contract), so this either fully
    // restores or fully leaves the just-reset() state.
    util::ByteReader strategy_in(ckpt.strategy_state);
    strategy.load_state(strategy_in);
    strategy_in.expect_end("checkpoint strategy state");
  } catch (const std::exception& error) {
    throw CheckpointError("'" + path + "': " + error.what());
  }
  // Commit — nothing below throws.
  if (batteries_enabled) world.batteries = std::move(restored_batteries);
  global_weights = ckpt.global_weights;
  for (const RoundRecord& record : ckpt.records) history.add(record);
  cum_energy = ckpt.cum_energy_j;
  cum_wasted_energy = ckpt.cum_wasted_energy_j;
  best_accuracy = ckpt.best_accuracy;
  return ckpt;
}

void RunState::emit_run_start(std::span<const obs::Field> extra) const {
  if (!tracing(obs::TraceLevel::kRound)) return;
  const std::string strategy = world.strategy.name();  // Field keeps a view
  std::vector<obs::Field> fields = {
      {"schema", std::size_t{1}},
      {"strategy", strategy},
      {"users", world.users.size()},
      {"max_rounds", world.options.max_rounds},
      {"threads", pool.worker_count() == 0 ? std::size_t{1} : pool.worker_count()},
      {"seed", world.options.seed},
      {"faults_enabled", injector.active()}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  tracer->emit(obs::TraceLevel::kRound, "run_start", fields);
}

void RunState::emit_resumed(std::size_t round, double cum_delay,
                            std::span<const obs::Field> extra) const {
  if (!tracing(obs::TraceLevel::kRound)) return;
  std::vector<obs::Field> fields = {{"round", round},
                                    {"records", history.size()},
                                    {"cum_delay_s", cum_delay},
                                    {"cum_energy_j", cum_energy}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  tracer->emit(obs::TraceLevel::kRound, "checkpoint_resume", fields);
}

Checkpoint RunState::snapshot(std::uint64_t next_round, double cum_delay) const {
  Checkpoint ckpt;
  ckpt.seed = world.options.seed;
  ckpt.n_users = world.users.size();
  ckpt.next_round = next_round;
  ckpt.cum_delay_s = cum_delay;
  ckpt.cum_energy_j = cum_energy;
  ckpt.cum_wasted_energy_j = cum_wasted_energy;
  ckpt.best_accuracy = best_accuracy;
  ckpt.trace_seq = tracer != nullptr ? tracer->event_count() : 0;
  ckpt.global_weights = global_weights;
  ckpt.batch_rng = batch_rng;
  ckpt.strategy_name = world.strategy.name();
  const auto frame = [](const auto& component) {
    util::ByteWriter writer;
    component.save_state(writer);
    return writer.take();
  };
  ckpt.strategy_state = frame(world.strategy);
  ckpt.injector_state = frame(injector);
  ckpt.fading_state = frame(fading);
  ckpt.batteries_enabled = batteries_enabled;
  if (batteries_enabled) ckpt.battery_state = frame(world.batteries);
  ckpt.records = history.rounds();
  return ckpt;
}

void RunState::write_checkpoint(const Checkpoint& ckpt, std::size_t token,
                                std::size_t trace_round) const {
  const std::string path =
      util::expand_token(world.options.checkpoint_path, "{round}", std::to_string(token));
  ckpt.write_file(path);
  if (tracing(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "checkpoint_write",
                 {{"round", trace_round}, {"path", path}, {"records", history.size()}});
  }
}

ClientTask RunState::resolve_client(const sched::FleetView& fleet,
                                    const sched::Decision& decision, std::size_t k,
                                    std::uint64_t stream_key,
                                    std::size_t fault_key) const {
  ClientTask task;
  task.user = decision.selected[k];
  task.frequency_hz = decision.frequencies_hz[k];
  if (!fleet.is_alive(task.user)) {
    throw std::logic_error(std::string(world.engine) +
                           ": strategy selected an unavailable device");
  }
  const mec::Device& device = world.devices[task.user];
  if (task.frequency_hz < device.f_min_hz - 1e-6 ||
      task.frequency_hz > device.f_max_hz + 1e-6) {
    throw std::logic_error(std::string(world.engine) + ": frequency outside DVFS range");
  }
  task.fade_multiplier = fading.multiplier(task.user);
  task.rng = batch_rng.fork(stream_key);
  if (injector.active()) task.faults = injector.draw(fault_key, task.user, max_attempts);
  return task;
}

namespace {

/// One dispatch, one outcome (Algorithm 1 line 7 plus the Eq. 4-8 costs).
ClientOutcome execute_client(const RunState& run, const ClientTask& task, std::size_t index) {
  const RoundWorld& world = run.world;
  // Per-client span (kDebug): tagged with the pool-worker tid by the
  // profiler, so chrome://tracing shows the cohort's actual packing.
  obs::ScopedSpan client_span(run.profiler, "client", static_cast<std::int64_t>(index),
                              static_cast<std::int64_t>(task.user),
                              obs::TraceLevel::kDebug);
  const mec::Device& device = world.devices[task.user];
  const double f = task.frequency_hz;
  ClientOutcome outcome;
  outcome.faults = task.faults;

  if (task.faults.crashed) {
    // The local update died crash_fraction of the way through: the cycles
    // burned still cost Eq.-(5) energy (pure waste), but nothing ever
    // reaches the uplink.
    outcome.compute_delay_s = mec::compute_delay_s(device, f) * task.faults.slowdown *
                              task.faults.crash_fraction;
    outcome.energy_j = mec::compute_energy_j(device, f) * task.faults.crash_fraction;
    return outcome;
  }

  const std::size_t worker = util::ThreadPool::worker_index();
  nn::Sequential& model =
      worker == util::ThreadPool::npos ? world.model : *run.replicas[worker];

  util::Rng client_rng = task.rng;
  outcome.trained = true;
  outcome.update = local_update(model, run.global_weights, world.user_data[task.user],
                                world.options.client, client_rng);

  // Upload compression decides what the server integrates and scales the
  // simulated payload: C_model is a config knob decoupled from the trained
  // model's true size (DESIGN.md), so the wire size entering Eq. (7) is
  // C_model times the compression ratio achieved on the real weight vector.
  const nn::CompressedModel compressed =
      nn::compress(outcome.update.weights, world.options.compression);
  const double compression_ratio =
      static_cast<double>(compressed.wire_bits) /
      (32.0 * static_cast<double>(outcome.update.weights.size()));
  const double wire_bits = world.options.model_size_bits * compression_ratio;
  outcome.update.weights = std::move(compressed.reconstructed);

  // Fading perturbs this step's actual channel gain; strategies only knew
  // the init-time value.
  mec::Device faded = device;
  faded.channel_gain_sq *= task.fade_multiplier;

  // A transient straggler stretches the Eq.-(4) delay (same cycles,
  // externally stalled) without changing the Eq.-(5) energy.  Every upload
  // attempt — failed or not — costs full Eq. (7)/(8), and each retry adds
  // a backoff gap before re-occupying the uplink.
  outcome.compute_delay_s = mec::compute_delay_s(device, f) * task.faults.slowdown;
  outcome.upload_duration_s = mec::upload_delay_s(faded, world.channel, wire_bits);
  outcome.attempts = task.faults.attempts();
  outcome.occupancy_s =
      outcome.attempts <= 1
          ? outcome.upload_duration_s
          : static_cast<double>(outcome.attempts) * outcome.upload_duration_s +
                static_cast<double>(outcome.attempts - 1) * world.options.retry_backoff_s;
  outcome.energy_j = mec::compute_energy_j(device, f) +
                     static_cast<double>(outcome.attempts) *
                         mec::upload_energy_j(faded, world.channel, wire_bits);
  return outcome;
}

}  // namespace

std::vector<ClientOutcome> RunState::train_cohort(
    std::span<const ClientTask> tasks, std::string_view unit, std::size_t index,
    const std::function<void(ClientOutcome&)>& finish) {
  std::vector<ClientOutcome> outcomes(tasks.size());
  // Each task owns outcome slot k; the upload compression path runs inside
  // the task so it parallelizes too.
  const auto run_client = [&](std::size_t k) {
    outcomes[k] = execute_client(*this, tasks[k], index);
    if (finish) finish(outcomes[k]);
  };

  obs::ScopedSpan training_span(profiler, "local_training",
                                static_cast<std::int64_t>(index));
  if (pool.worker_count() == 0) {
    for (std::size_t k = 0; k < tasks.size(); ++k) run_client(k);
    return outcomes;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    futures.push_back(pool.submit([&run_client, k] { run_client(k); }));
  }
  // Join every task before letting any exception escape: the tasks
  // reference this frame's state.  Failures are collected across the whole
  // cohort and rethrown as one aggregate error naming every failed client,
  // so a multi-client breakage is diagnosable from a single message.
  std::string failures;
  std::size_t failure_count = 0;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    std::string what;
    try {
      futures[k].get();
      continue;
    } catch (const std::exception& error) {
      what = error.what();
    } catch (...) {
      what = "unknown exception";
    }
    ++failure_count;
    if (!failures.empty()) failures += "; ";
    failures += "client " + std::to_string(k) + " (user " +
                std::to_string(tasks[k].user) + "): " + what;
  }
  if (failure_count > 0) {
    throw std::runtime_error(std::string(world.engine) + ": " +
                             std::to_string(failure_count) + " client task(s) failed in " +
                             std::string(unit) + " " + std::to_string(index) + ": " +
                             failures);
  }
  return outcomes;
}

void RunState::emit_tdma(std::size_t round, std::size_t user, std::size_t attempts,
                         const mec::UploadSlot& slot, bool accepted,
                         bool dropped_late) const {
  if (!tracing(obs::TraceLevel::kDecision)) return;
  tracer->emit(obs::TraceLevel::kDecision, "tdma",
               {{"round", round},
                {"user", user},
                {"attempts", attempts},
                {"compute_end_s", slot.compute_end},
                {"upload_start_s", slot.upload_start},
                {"upload_end_s", slot.upload_end},
                {"slack_s", slot.slack_s},
                {"accepted", accepted},
                {"dropped_late", dropped_late}});
}

void RunState::emit_fault(std::size_t round, std::size_t user, std::string_view kind,
                          std::initializer_list<obs::Field> detail) const {
  if (!tracing(obs::TraceLevel::kRound)) return;
  std::vector<obs::Field> fields = {{"round", round}, {"user", user}, {"kind", kind}};
  fields.insert(fields.end(), detail.begin(), detail.end());
  tracer->emit(obs::TraceLevel::kRound, "fault", fields);
}

void RunState::skip_round(std::size_t round, double cum_delay, std::size_t available) {
  RoundRecord skipped;
  skipped.round = round;
  skipped.quorum_failed = true;
  skipped.cum_delay_s = cum_delay;
  skipped.cum_energy_j = cum_energy;
  skipped.alive_users = alive_users();
  skipped.available_users = available;
  history.add(std::move(skipped));
  if (registry != nullptr) registry->add("rounds.skipped");
  if (tracing(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "round_end",
                 {{"round", round},
                  {"selected", std::size_t{0}},
                  {"survivors", std::size_t{0}},
                  {"quorum_failed", true},
                  {"cum_delay_s", cum_delay},
                  {"cum_energy_j", cum_energy}});
  }
}

void RunState::close_step(RoundRecord record, std::size_t trained, bool last) {
  const TrainerOptions& options = world.options;
  if (record.round % options.eval_every == 0 || last ||
      record.cum_delay_s > options.deadline_s) {
    obs::ScopedSpan eval_span(profiler, "evaluation", static_cast<std::int64_t>(record.round));
    Evaluation eval;
    if (pool.worker_count() == 0) {
      eval = evaluate(world.model, global_weights, eval_plan);
    } else {
      eval = evaluate_parallel(eval_models, global_weights, eval_plan, pool);
    }
    record.evaluated = true;
    record.test_loss = eval.loss;
    record.test_accuracy = eval.accuracy;
    // Tracked whether or not a registry is attached: the value is
    // checkpointed, and observation must not change checkpoint bytes.
    best_accuracy = std::max(best_accuracy, record.test_accuracy);
  }
  cum_wasted_energy += record.wasted_energy_j;
  if (registry != nullptr) {
    registry->add("rounds.completed");
    registry->add("clients.selected", record.selected.size());
    registry->add("clients.trained", trained);
    registry->add("clients.crashed", record.crashed);
    registry->add("clients.dropped_late", record.dropped_late);
    registry->add("clients.aggregated", record.survivors);
    registry->add("uploads.failed", record.upload_failures);
    registry->add("uploads.retries", record.retries);
    if (record.quorum_failed) registry->add("rounds.quorum_failed");
    // After warm-up the delta must sit at zero — the steady-state no-alloc
    // audit, visible in the metrics stream.
    const std::uint64_t scratch_now = tensor::scratch_realloc_count();
    registry->add("kernel.scratch_reallocs", scratch_now - scratch_reported);
    scratch_reported = scratch_now;
    registry->set_gauge("delay.cum_s", record.cum_delay_s);
    registry->set_gauge("energy.cum_j", cum_energy);
    registry->set_gauge("energy.wasted_cum_j", cum_wasted_energy);
    if (record.evaluated) {
      registry->set_gauge("accuracy.last", record.test_accuracy);
      registry->set_gauge("accuracy.best", best_accuracy);
    }
  }
  if (tracing(obs::TraceLevel::kRound)) {
    std::vector<obs::Field> fields = {{"round", record.round},
                                      {"selected", record.selected.size()},
                                      {"survivors", record.survivors},
                                      {"crashed", record.crashed},
                                      {"upload_failures", record.upload_failures},
                                      {"dropped_late", record.dropped_late},
                                      {"retries", record.retries},
                                      {"quorum_failed", record.quorum_failed},
                                      {"round_delay_s", record.round_delay_s},
                                      {"round_energy_j", record.round_energy_j},
                                      {"wasted_energy_j", record.wasted_energy_j},
                                      {"cum_delay_s", record.cum_delay_s},
                                      {"cum_energy_j", record.cum_energy_j},
                                      {"train_loss", record.train_loss}};
    if (record.evaluated) {
      fields.emplace_back("test_loss", record.test_loss);
      fields.emplace_back("test_accuracy", record.test_accuracy);
    }
    tracer->emit(obs::TraceLevel::kRound, "round_end", fields);
  }
  history.add(std::move(record));
}

bool RunState::should_stop(std::string_view unit) const {
  const TrainerOptions& options = world.options;
  const std::vector<RoundRecord>& rounds = history.rounds();
  if (rounds.empty()) return false;
  const RoundRecord& last = rounds.back();
  const std::string after = std::string(unit) + " " + std::to_string(last.round);
  if (last.cum_delay_s > options.deadline_s) {
    util::log_info(std::string(world.engine) + ": deadline reached after " + after);
    return true;
  }
  if (last.evaluated && options.target_accuracy >= 0.0 &&
      last.test_accuracy >= options.target_accuracy) {
    return true;
  }
  const std::size_t window = options.convergence_window;
  if (window < 2 || rounds.size() < window) return false;
  double lo = last.train_loss;
  double hi = lo;
  for (std::size_t k = 2; k <= window; ++k) {
    lo = std::min(lo, rounds[rounds.size() - k].train_loss);
    hi = std::max(hi, rounds[rounds.size() - k].train_loss);
  }
  if (hi - lo < options.convergence_epsilon) {
    util::log_info(std::string(world.engine) + ": converged after " + after);
    return true;
  }
  return false;
}

TrainingHistory RunState::finish(double cum_delay) {
  if (tracing(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "run_end",
                 {{"rounds", history.size()},
                  {"cum_delay_s", cum_delay},
                  {"cum_energy_j", cum_energy},
                  {"wasted_energy_cum_j", cum_wasted_energy}});
    tracer->flush();
  }
  nn::load_parameters(world.model, global_weights);
  return std::move(history);
}

}  // namespace helcfl::fl::detail
