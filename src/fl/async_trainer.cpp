#include "fl/async_trainer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "fl/checkpoint.h"
#include "fl/event_queue.h"
#include "fl/round_steps.h"
#include "fl/server.h"
#include "mec/tdma.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/serial.h"

namespace helcfl::fl {

namespace {

/// One dispatched client, from dispatch to aggregation: in flight until its
/// terminal event (upload finish or crash burn-out), then — if the upload
/// was accepted — in the server's aggregation buffer.  The training itself
/// runs at dispatch time; only the *outcome* travels through the event queue.
struct AsyncDispatch {
  std::uint64_t id = 0;          ///< dispatch counter; RNG/fault fork key
  std::size_t user = 0;
  std::size_t version = 0;       ///< model_version trained against (staleness base)
  double frequency_hz = 0.0;
  double dispatch_time_s = 0.0;
  mec::UploadSlot slot;          ///< the TDMA grant, set when kComputeFinish pops
  /// update.weights hold the post-compression delta from the dispatch base.
  detail::ClientOutcome outcome;
};

/// Per-server-step accumulators, reset at every aggregation.
struct StepAccum {
  sched::Decision dispatched;  ///< dispatch order
  sched::Decision resolved;    ///< terminal-event order
  /// Per resolved entry: 2 = arrival awaiting the step's quorum verdict;
  /// rewritten to 1/0 at aggregation time, when report_completion fires.
  std::vector<std::uint8_t> resolved_completed;
  std::size_t crashed = 0;
  std::size_t upload_failures = 0;
  std::size_t dropped_stale = 0;
  std::size_t retries = 0;
  double step_energy = 0.0;
  double step_wasted = 0.0;

  void resolve(const AsyncDispatch& d, std::uint8_t completed) {
    resolved.selected.push_back(d.user);
    resolved.frequencies_hz.push_back(d.frequency_hz);
    resolved_completed.push_back(completed);
  }
};

/// The engine state between events — exactly what a checkpoint's async
/// frame holds.
struct AsyncState {
  std::size_t model_version = 0;  ///< quorum-met aggregations; staleness base
  std::size_t step = 0;           ///< all aggregations; the record "round"
  std::uint64_t next_dispatch_id = 0;
  std::uint64_t resolutions = 0;  ///< checkpoint-cadence counter
  std::size_t effective_k = 0;    ///< 0 until the first cohort fixes it
  double now = 0.0;               ///< global clock; monotone through pops
  mec::Uplink uplink;             ///< the single TDMA channel
  double step_start = 0.0;
  std::vector<std::uint8_t> busy;
  EventQueue queue;
  std::map<std::uint64_t, AsyncDispatch> in_flight;  ///< keyed by dispatch id
  std::vector<AsyncDispatch> buffer;  ///< accepted uploads, arrival order
  StepAccum acc;

  std::vector<std::uint8_t> save() const;
  /// Parses a frame for an `n_users` fleet.  Throws CheckpointError (or the
  /// reader's error) on anything a resumed run could not continue from.
  static AsyncState load(std::span<const std::uint8_t> frame, std::size_t n_users);
};

void save_dispatch(util::ByteWriter& out, const AsyncDispatch& d) {
  const detail::ClientOutcome& o = d.outcome;
  out.u64(d.id);
  out.u64(static_cast<std::uint64_t>(d.user));
  out.u64(static_cast<std::uint64_t>(d.version));
  out.f64(d.frequency_hz);
  out.f64(d.dispatch_time_s);
  out.u64(static_cast<std::uint64_t>(d.slot.index));
  out.f64(d.slot.compute_end);
  out.f64(d.slot.upload_start);
  out.f64(d.slot.upload_end);
  out.f64(d.slot.slack_s);
  out.f64(o.compute_delay_s);
  out.f64(o.upload_duration_s);
  out.f64(o.occupancy_s);
  out.u64(static_cast<std::uint64_t>(o.attempts));
  out.boolean(o.faults.upload_ok);
  out.boolean(o.trained);
  out.boolean(o.faults.crashed);
  out.f64(o.faults.crash_fraction);
  out.f64(o.faults.slowdown);
  out.u64(static_cast<std::uint64_t>(o.faults.failed_attempts));
  out.f64(o.energy_j);
  out.vec_f32(o.update.weights);
  out.f64(o.update.train_loss);
  out.u64(static_cast<std::uint64_t>(o.update.num_samples));
  out.vec_f32({});  // persistent model state: always empty (docs/CHECKPOINT.md)
}

AsyncDispatch load_dispatch(util::ByteReader& in, std::size_t n_users) {
  AsyncDispatch d;
  detail::ClientOutcome& o = d.outcome;
  d.id = in.u64();
  d.user = static_cast<std::size_t>(in.u64());
  d.version = static_cast<std::size_t>(in.u64());
  d.frequency_hz = in.f64();
  d.dispatch_time_s = in.f64();
  d.slot.index = static_cast<std::size_t>(in.u64());
  d.slot.compute_end = in.f64();
  d.slot.upload_start = in.f64();
  d.slot.upload_end = in.f64();
  d.slot.slack_s = in.f64();
  o.compute_delay_s = in.f64();
  o.upload_duration_s = in.f64();
  o.occupancy_s = in.f64();
  o.attempts = static_cast<std::size_t>(in.u64());
  o.faults.upload_ok = in.boolean();
  o.trained = in.boolean();
  o.faults.crashed = in.boolean();
  o.faults.crash_fraction = in.f64();
  o.faults.slowdown = in.f64();
  o.faults.failed_attempts = static_cast<std::size_t>(in.u64());
  o.energy_j = in.f64();
  o.update.weights = in.vec_f32();
  o.update.train_loss = in.f64();
  o.update.num_samples = static_cast<std::size_t>(in.u64());
  const std::size_t state_size = in.vec_f32().size();
  if (state_size != 0) {
    throw CheckpointError("async state holds a dispatch record with " +
                          std::to_string(state_size) +
                          " persistent state scalars; no model has any");
  }
  if (d.user >= n_users) {
    throw CheckpointError("async state names dispatched user " +
                          std::to_string(d.user) + " of a " +
                          std::to_string(n_users) + "-user fleet");
  }
  if (!std::isfinite(d.dispatch_time_s) || !std::isfinite(o.energy_j)) {
    throw CheckpointError("async state holds a non-finite dispatch record");
  }
  return d;
}

/// Smallest possible dispatch record, used to cap adversarial counts before
/// reserving (same policy as fl/checkpoint.cpp's kMinRecordBytes).
constexpr std::size_t kMinDispatchBytes = 7 * 8 + 13 * 8 + 3 + 2 * 8;

std::vector<std::uint8_t> AsyncState::save() const {
  util::ByteWriter out;
  out.u64(static_cast<std::uint64_t>(model_version));
  out.u64(static_cast<std::uint64_t>(step));
  out.u64(next_dispatch_id);
  out.u64(resolutions);
  out.u64(static_cast<std::uint64_t>(effective_k));
  out.f64(now);
  out.f64(uplink.free_at);
  out.f64(step_start);
  out.vec_u8(busy);
  queue.save_state(out);
  out.u64(in_flight.size());
  for (const auto& [id, dispatch] : in_flight) save_dispatch(out, dispatch);
  out.u64(buffer.size());
  for (const AsyncDispatch& dispatch : buffer) save_dispatch(out, dispatch);
  out.vec_size(acc.dispatched.selected);
  out.vec_f64(acc.dispatched.frequencies_hz);
  out.vec_size(acc.resolved.selected);
  out.vec_f64(acc.resolved.frequencies_hz);
  out.vec_u8(acc.resolved_completed);
  out.u64(static_cast<std::uint64_t>(acc.crashed));
  out.u64(static_cast<std::uint64_t>(acc.upload_failures));
  out.u64(static_cast<std::uint64_t>(acc.dropped_stale));
  out.u64(static_cast<std::uint64_t>(acc.retries));
  out.f64(acc.step_energy);
  out.f64(acc.step_wasted);
  return out.take();
}

AsyncState AsyncState::load(std::span<const std::uint8_t> frame, std::size_t n_users) {
  util::ByteReader in(frame);
  AsyncState s;
  s.model_version = static_cast<std::size_t>(in.u64());
  s.step = static_cast<std::size_t>(in.u64());
  s.next_dispatch_id = in.u64();
  s.resolutions = in.u64();
  s.effective_k = static_cast<std::size_t>(in.u64());
  s.now = in.f64();
  s.uplink.free_at = in.f64();
  s.step_start = in.f64();
  if (!std::isfinite(s.now) || !std::isfinite(s.uplink.free_at) ||
      !std::isfinite(s.step_start) || s.now < 0.0) {
    throw CheckpointError("async state holds a non-finite clock");
  }
  s.busy = in.vec_u8();
  if (s.busy.size() != n_users) {
    throw CheckpointError("async state holds a busy mask for " +
                          std::to_string(s.busy.size()) + " users, expected " +
                          std::to_string(n_users));
  }
  s.queue.load_state(in);
  // In-flight and buffered records get the same checks: an id below the
  // dispatch counter and unique across both lists, and a version no newer
  // than the model (staleness = model_version - version would wrap).
  std::set<std::uint64_t> ids;
  const auto load_records = [&](std::string_view what, const auto& keep) {
    const std::uint64_t count = in.u64();
    if (count > in.remaining() / kMinDispatchBytes) {
      throw CheckpointError("async state declares " + std::to_string(count) + " " +
                            std::string(what) + " records but only " +
                            std::to_string(in.remaining()) +
                            " byte(s) remain — corrupted or malformed");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      AsyncDispatch d = load_dispatch(in, n_users);
      const std::string where = std::string(what) + " dispatch id " + std::to_string(d.id);
      if (d.id >= s.next_dispatch_id) {
        throw CheckpointError("async state holds " + where + " beyond the dispatch counter");
      }
      if (!ids.insert(d.id).second) {
        throw CheckpointError("async state repeats " + where);
      }
      if (d.version > s.model_version) {
        throw CheckpointError("async state holds " + where +
                              " trained against model version " +
                              std::to_string(d.version) + ", beyond the saved model version " +
                              std::to_string(s.model_version));
      }
      keep(std::move(d));
    }
  };
  load_records("in-flight", [&](AsyncDispatch d) { s.in_flight.emplace(d.id, std::move(d)); });
  load_records("buffered", [&](AsyncDispatch d) { s.buffer.push_back(std::move(d)); });
  StepAccum& acc = s.acc;
  acc.dispatched.selected = in.vec_size();
  acc.dispatched.frequencies_hz = in.vec_f64();
  acc.resolved.selected = in.vec_size();
  acc.resolved.frequencies_hz = in.vec_f64();
  acc.resolved_completed = in.vec_u8();
  acc.crashed = static_cast<std::size_t>(in.u64());
  acc.upload_failures = static_cast<std::size_t>(in.u64());
  acc.dropped_stale = static_cast<std::size_t>(in.u64());
  acc.retries = static_cast<std::size_t>(in.u64());
  acc.step_energy = in.f64();
  acc.step_wasted = in.f64();
  in.expect_end("checkpoint async state");
  if (acc.resolved.selected.size() != acc.resolved.frequencies_hz.size() ||
      acc.resolved.selected.size() != acc.resolved_completed.size() ||
      acc.dispatched.selected.size() != acc.dispatched.frequencies_hz.size()) {
    throw CheckpointError("async state step accumulators disagree in size");
  }
  // Every pending compute/upload/fault event must reference a live
  // in-flight dispatch; a dangling tag would fault mid-run.
  for (const Event& event : s.queue.sorted_events()) {
    if (event.kind == EventKind::kChurn) continue;
    if (s.in_flight.find(event.tag) == s.in_flight.end()) {
      throw CheckpointError("async state queues an event for unknown dispatch id " +
                            std::to_string(event.tag));
    }
  }
  return s;
}

}  // namespace

void AsyncOptions::validate() const {
  if (!std::isfinite(staleness_beta) || staleness_beta < 0.0) {
    throw std::invalid_argument(
        "AsyncOptions: staleness_beta = " + std::to_string(staleness_beta) +
        " must be finite and >= 0 (0 disables staleness discounting)");
  }
}

AsyncOptions::Mode parse_async_mode(const std::string& text) {
  if (text == "sync") return AsyncOptions::Mode::kSync;
  if (text == "async") return AsyncOptions::Mode::kAsync;
  throw std::invalid_argument("unknown engine mode '" + text +
                              "' (expected \"sync\" or \"async\")");
}

std::string async_mode_name(AsyncOptions::Mode mode) {
  return mode == AsyncOptions::Mode::kSync ? "sync" : "async";
}

AsyncTrainer::AsyncTrainer(nn::Sequential& model, const data::Dataset& train,
                           const data::Dataset& test,
                           const data::Partition& partition,
                           std::span<const mec::Device> devices,
                           const mec::Channel& channel,
                           sched::SelectionStrategy& strategy,
                           TrainerOptions options, AsyncOptions async_options)
    : async_(async_options) {
  async_.validate();
  if (async_.mode == AsyncOptions::Mode::kSync) {
    throw std::invalid_argument(
        "AsyncTrainer: mode = sync is the barrier engine; construct "
        "fl::FederatedTrainer for it");
  }
  world_ = std::make_unique<detail::RoundWorld>("AsyncTrainer", model, train, test,
                                                partition, devices, channel, strategy,
                                                std::move(options));
  const std::size_t min_clients = world_->options.min_clients;
  if (async_.buffer_k > 0 && async_.buffer_k < min_clients) {
    throw std::invalid_argument(
        "AsyncTrainer: buffer_k = " + std::to_string(async_.buffer_k) +
        " is below min_clients = " + std::to_string(min_clients) +
        "; every aggregation would fail its quorum and the model would never "
        "move");
  }
}

AsyncTrainer::~AsyncTrainer() = default;

// The event-driven FedBuff engine (docs/ASYNC.md).  A single deterministic
// clock advances through the EventQueue; devices are (re-)dispatched the
// moment they are free, the single TDMA uplink is a rolling cursor, and the
// server aggregates whenever `buffer_k` updates have arrived — each
// discounted by its staleness — without waiting for anyone still in flight.
// One server step (aggregation) plays the role the barrier round plays in
// the sync engine: it owns a RoundRecord, the observe/report_completion
// calls, the eval cadence, and the stop checks.
TrainingHistory AsyncTrainer::run() {
  detail::RoundWorld& world = *world_;
  const TrainerOptions& options = world.options;
  const std::size_t n_users = world.users.size();
  mec::BatteryFleet& batteries = world.batteries;
  detail::RunState run(world);
  obs::Tracer* const tracer = run.tracer;
  obs::PhaseProfiler* const profiler = run.profiler;
  obs::Registry* const registry = run.registry;
  const bool batteries_enabled = run.batteries_enabled;
  mec::FaultInjector& injector = run.injector;

  AsyncState st;
  st.effective_k = async_.buffer_k;
  st.busy.assign(n_users, 0);
  bool stopping = false;

  // Anti-livelock: a hard cap on total dispatches, far above anything a
  // normal run uses (the sync engine dispatches at most max_rounds x fleet).
  const std::uint64_t dispatch_cap =
      static_cast<std::uint64_t>(options.max_rounds + 1) * n_users;

  // Checkpoint resume: the async frame is parsed with everything else
  // before anything commits.
  AsyncState restored;
  const bool resumed = run.resume(/*async_engine=*/true, [&](const Checkpoint& ckpt) {
                          restored = AsyncState::load(ckpt.async_state, n_users);
                        }).has_value();
  if (resumed) st = std::move(restored);

  const obs::Field run_fields[] = {{"mode", std::string_view("async")},
                                   {"buffer_k", async_.buffer_k},
                                   {"staleness_beta", async_.staleness_beta},
                                   {"staleness_bound", async_.staleness_bound}};
  run.emit_run_start(run_fields);
  if (resumed) {
    const obs::Field resume_fields[] = {{"resolutions", st.resolutions},
                                        {"in_flight", st.in_flight.size()},
                                        {"buffered", st.buffer.size()}};
    run.emit_resumed(st.step, st.now, resume_fields);
  }

  // Cadenced snapshot writer.  The async cadence is counted in event
  // *resolutions* (not steps): with in-flight work outnumbering steps,
  // resolution boundaries are where a snapshot naturally captures a
  // non-empty event queue, in-flight clients, and a partial buffer.  The
  // {round} path token expands to the resolution count.
  const auto maybe_write_checkpoint = [&]() {
    if (options.checkpoint_every == 0 || st.resolutions == 0 ||
        st.resolutions % options.checkpoint_every != 0) {
      return;
    }
    obs::ScopedSpan span(profiler, "checkpoint", static_cast<std::int64_t>(st.resolutions));
    Checkpoint ckpt = run.snapshot(st.step, st.now);
    ckpt.async_enabled = true;
    ckpt.async_state = st.save();
    run.write_checkpoint(ckpt, st.resolutions, st.resolutions);
  };

  // Dispatches every idle selectable device the strategy picks, trains the
  // new cohort (in parallel), and schedules each client's next event.
  // Called at every churn boundary and after every resolution.
  const auto try_dispatch = [&]() {
    if (st.next_dispatch_id >= dispatch_cap) return;
    std::vector<std::uint8_t> selectable(n_users, 0);
    bool any_idle = false;
    for (std::size_t i = 0; i < n_users; ++i) {
      selectable[i] = st.busy[i] == 0 && run.selectable(i);
      any_idle = any_idle || selectable[i] != 0;
    }
    if (!any_idle) return;
    const sched::FleetView fleet{world.users, selectable};

    sched::Decision decision;
    {
      obs::ScopedSpan selection_span(profiler, "selection",
                                     static_cast<std::int64_t>(st.step));
      decision = world.strategy.decide(fleet, st.step);
    }
    if (decision.selected.empty()) return;
    if (decision.selected.size() != decision.frequencies_hz.size()) {
      throw std::logic_error("AsyncTrainer: strategy returned a bad decision");
    }

    std::size_t cohort = decision.selected.size();
    if (st.next_dispatch_id + cohort > dispatch_cap) {
      cohort = static_cast<std::size_t>(dispatch_cap - st.next_dispatch_id);
    }
    // The first cohort fixes the semi-async buffer size (buffer_k == 0).
    if (st.effective_k == 0) st.effective_k = std::max<std::size_t>(cohort, 1);

    // Streams are keyed on the dispatch id — unique and deterministic in
    // dispatch order — so mini-batch draws and fault outcomes are
    // identical for any thread count.
    const std::uint64_t first_id = st.next_dispatch_id;
    std::vector<detail::ClientTask> tasks;
    tasks.reserve(cohort);
    for (std::size_t k = 0; k < cohort; ++k) {
      const std::uint64_t id = st.next_dispatch_id++;
      tasks.push_back(run.resolve_client(fleet, decision, k, id, id));
      st.busy[tasks[k].user] = 1;
      st.acc.dispatched.selected.push_back(tasks[k].user);
      st.acc.dispatched.frequencies_hz.push_back(tasks[k].frequency_hz);
    }

    std::vector<detail::ClientOutcome> outcomes =
        run.train_cohort(tasks, "step", st.step, [&](detail::ClientOutcome& outcome) {
          // FedBuff aggregates *updates*: the arrival carries the client's
          // delta from the model it was dispatched with, so a stale update
          // nudges the current model instead of dragging it back toward its
          // old base.
          std::vector<float>& weights = outcome.update.weights;
          for (std::size_t i = 0; i < weights.size(); ++i) {
            weights[i] -= run.global_weights[i];
          }
        });

    // Commit in dispatch order: schedule each client's terminal event.
    for (std::size_t k = 0; k < cohort; ++k) {
      AsyncDispatch d;
      d.id = first_id + k;
      d.user = tasks[k].user;
      d.version = st.model_version;
      d.frequency_hz = tasks[k].frequency_hz;
      d.dispatch_time_s = st.now;
      d.outcome = std::move(outcomes[k]);
      const EventKind kind =
          d.outcome.faults.crashed ? EventKind::kFault : EventKind::kComputeFinish;
      st.queue.push(st.now + d.outcome.compute_delay_s, kind, d.user, d.id);
      if (run.tracing(obs::TraceLevel::kDecision)) {
        tracer->emit(obs::TraceLevel::kDecision, "async.dispatch",
                     {{"step", st.step},
                      {"user", d.user},
                      {"dispatch_id", d.id},
                      {"version", d.version},
                      {"time_s", st.now},
                      {"compute_delay_s", d.outcome.compute_delay_s}});
      }
      st.in_flight.emplace(d.id, std::move(d));
    }
  };

  // One server step ends here: FedBuff aggregation over the buffer (or a
  // flush of whatever is left), completion feedback, the step's
  // RoundRecord, eval cadence, and the stop checks.
  const auto aggregate = [&](bool flush) {
    obs::ScopedSpan aggregation_span(profiler, "aggregation",
                                     static_cast<std::int64_t>(st.step));
    const std::vector<AsyncDispatch>& buffer = st.buffer;
    StepAccum& acc = st.acc;
    const std::size_t arrivals = buffer.size();
    const bool quorum_met = arrivals >= options.min_clients;
    double staleness_sum = 0.0;
    for (const AsyncDispatch& d : buffer) {
      staleness_sum += static_cast<double>(st.model_version - d.version);
    }
    const double staleness_mean =
        arrivals > 0 ? staleness_sum / static_cast<double>(arrivals) : 0.0;

    if (!quorum_met && run.tracing(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "quorum",
                   {{"round", st.step},
                    {"survivors", arrivals},
                    {"min_clients", options.min_clients}});
    }

    double train_loss_sum = 0.0;
    sched::Decision aggregated;
    if (quorum_met) {
      // Staleness-discounted FedBuff step: each buffered arrival holds the
      // client's *delta* from its dispatch base, weighted by
      // num_samples / (1+s)^β, and the weighted mean delta is applied to the
      // current model.  With β = 0 every discount is pow(x, 0) == 1.0
      // exactly, which leaves fedavg's weights at the plain sample counts.
      std::vector<WeightedModel> uploads;
      std::vector<double> losses;
      for (const AsyncDispatch& d : buffer) {
        const ClientUpdate& update = d.outcome.update;
        const double staleness = static_cast<double>(st.model_version - d.version);
        const double discount = 1.0 / std::pow(1.0 + staleness, async_.staleness_beta);
        uploads.push_back({update.weights, update.num_samples, discount});
        aggregated.selected.push_back(d.user);
        aggregated.frequencies_hz.push_back(d.frequency_hz);
        losses.push_back(update.train_loss);
        train_loss_sum += update.train_loss;
      }
      const std::vector<float> mean_delta = fedavg(uploads);
      for (std::size_t i = 0; i < run.global_weights.size(); ++i) {
        run.global_weights[i] += mean_delta[i];
      }
      ++st.model_version;
      world.strategy.observe(st.step, aggregated, losses);
    } else {
      // Quorum failed: the model holds still and every buffered update's
      // energy is wasted on top of what already failed this step.
      for (const AsyncDispatch& d : buffer) {
        acc.step_wasted += d.outcome.energy_j;
        train_loss_sum += d.outcome.update.train_loss;
      }
    }

    // Completion feedback over everything resolved during this step, in
    // resolution order.  Tentative arrival marks (2) settle with the
    // step's quorum verdict.
    if (!acc.resolved.selected.empty()) {
      std::vector<std::uint8_t> completed = acc.resolved_completed;
      for (std::uint8_t& c : completed) {
        c = (c == 2 && quorum_met) ? 1 : 0;
      }
      world.strategy.report_completion(st.step, acc.resolved, completed);
    }
    aggregation_span.finish();

    run.cum_energy += acc.step_energy;

    std::size_t available = 0;
    for (std::size_t i = 0; i < n_users; ++i) available += run.selectable(i) ? 1 : 0;

    RoundRecord record;
    record.round = st.step;
    record.selected = acc.dispatched.selected;
    record.round_delay_s = st.now - st.step_start;
    record.round_energy_j = acc.step_energy;
    record.cum_delay_s = st.now;
    record.cum_energy_j = run.cum_energy;
    record.train_loss =
        arrivals > 0 ? train_loss_sum / static_cast<double>(arrivals) : 0.0;
    record.alive_users = run.alive_users();
    record.available_users = available;
    record.aggregated = std::move(aggregated.selected);
    record.survivors = record.aggregated.size();
    record.crashed = acc.crashed;
    record.upload_failures = acc.upload_failures;
    // In async mode dropped_late counts bounded-staleness drops — the async
    // analogue of arriving after the barrier's cutoff.
    record.dropped_late = acc.dropped_stale;
    record.retries = acc.retries;
    record.quorum_failed = !quorum_met;
    record.wasted_energy_j = acc.step_wasted;

    const bool last_step = st.step + 1 >= options.max_rounds;
    run.close_step(std::move(record), arrivals, last_step);
    if (registry != nullptr) {
      registry->add("async.aggregations");
      if (flush) registry->add("async.flushes");
      if (acc.dropped_stale > 0) registry->add("async.dropped_stale", acc.dropped_stale);
      registry->set_gauge("async.staleness_mean", staleness_mean);
      registry->set_gauge("async.model_version", static_cast<double>(st.model_version));
      registry->set_gauge("async.in_flight", static_cast<double>(st.in_flight.size()));
    }
    if (run.tracing(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "async.step",
                   {{"round", st.step},
                    {"arrivals", arrivals},
                    {"buffer_k", st.effective_k},
                    {"staleness_mean", staleness_mean},
                    {"model_version", st.model_version},
                    {"in_flight", st.in_flight.size()},
                    {"flush", flush}});
    }
    stopping = run.should_stop("step") || last_step;

    st.buffer.clear();
    st.acc = StepAccum{};
    ++st.step;
    st.step_start = st.now;
    if (!stopping) st.queue.push(st.now, EventKind::kChurn, 0, /*tag=*/st.step);
  };

  // The in-flight dispatch an event names; a terminal event extracts it.
  const auto find_flight = [&](std::uint64_t id) {
    const auto it = st.in_flight.find(id);
    if (it == st.in_flight.end()) {
      throw std::logic_error("AsyncTrainer: event references unknown dispatch id " +
                             std::to_string(id));
    }
    return it;
  };
  const auto take_flight = [&](std::uint64_t id) {
    return std::move(st.in_flight.extract(find_flight(id)).mapped());
  };

  // Bootstrap: the first churn boundary enters the queue at t = 0.  A
  // resumed run's queue already carries its pending events.
  if (!resumed && options.max_rounds > 0) {
    st.queue.push(0.0, EventKind::kChurn, 0, /*tag=*/st.step);
  }
  // A snapshot taken right after the last step resumes into a finished run,
  // and so does one taken where a stop check fired: the resolution that
  // closed a step (nothing resolved since) wrote it before the loop ended.
  if (st.step >= options.max_rounds) stopping = true;
  if (resumed && st.acc.resolved.selected.empty()) {
    stopping = stopping || run.should_stop("step");
  }

  while (!stopping) {
    if (st.queue.empty()) {
      // Nothing left in flight.  Flush a partial buffer (or settle pending
      // completion feedback) as one final server step; otherwise the run is
      // over — fleet depleted, strategy empty, or dispatch cap reached.
      if (!st.buffer.empty() || !st.acc.resolved.selected.empty()) {
        aggregate(/*flush=*/true);
        continue;
      }
      break;
    }
    const Event event = st.queue.pop();
    st.now = event.time_s;  // monotone: every push is at >= now

    switch (event.kind) {
      case EventKind::kChurn: {
        // A server-step boundary: availability churn and channel fading
        // advance once per step, exactly as the sync engine advances them
        // once per round.
        injector.begin_round();
        run.fading.step();
        try_dispatch();
        if (st.in_flight.empty() && st.buffer.empty() && st.queue.empty() &&
            st.acc.resolved.selected.empty() && injector.active() &&
            injector.away_count() > 0 && st.next_dispatch_id < dispatch_cap &&
            st.step < options.max_rounds) {
          // Churn emptied the fleet before anything was dispatched: record
          // a skipped step (the sync engine's churn-skip path) and try the
          // next churn boundary.
          run.skip_round(st.step, st.now, 0);
          st.acc = StepAccum{};
          ++st.step;
          st.step_start = st.now;
          if (st.step < options.max_rounds) {
            st.queue.push(st.now, EventKind::kChurn, 0, /*tag=*/st.step);
          }
        }
        break;
      }

      case EventKind::kComputeFinish: {
        // TDMA grant (the rule of mec::Uplink): this client transmits as
        // soon as both it and the channel are ready, holding the channel
        // for its full retry-inclusive occupancy.
        AsyncDispatch& d = find_flight(event.tag)->second;
        d.slot = st.uplink.grant(d.user, event.time_s, d.outcome.occupancy_s);
        st.queue.push(d.slot.upload_end, EventKind::kUploadFinish, d.user, d.id);
        break;
      }

      case EventKind::kUploadFinish: {
        AsyncDispatch d = take_flight(event.tag);
        const detail::ClientOutcome& outcome = d.outcome;
        const mec::ClientFaults& faults = outcome.faults;
        StepAccum& acc = st.acc;
        st.busy[d.user] = 0;
        acc.step_energy += outcome.energy_j;
        if (batteries_enabled) batteries.drain(d.user, outcome.energy_j);
        acc.retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
        const std::size_t staleness = st.model_version - d.version;

        bool accepted = false;
        if (!faults.upload_ok) {
          ++acc.upload_failures;
          acc.step_wasted += outcome.energy_j;
        } else if (async_.staleness_bound > 0 && staleness > async_.staleness_bound) {
          ++acc.dropped_stale;
          acc.step_wasted += outcome.energy_j;
        } else {
          accepted = true;
        }

        run.emit_tdma(st.step, d.user, outcome.attempts, d.slot, accepted,
                      /*dropped_late=*/false);
        if (faults.slowdown > 1.0) {
          run.emit_fault(st.step, d.user, "straggler", {{"slowdown", faults.slowdown}});
        }
        if (faults.failed_attempts > 0) {
          run.emit_fault(st.step, d.user, "upload_failure",
                         {{"failed_attempts", faults.failed_attempts},
                          {"upload_ok", faults.upload_ok}});
        }
        if (!accepted && faults.upload_ok) {
          run.emit_fault(st.step, d.user, "dropped_stale",
                         {{"staleness", staleness},
                          {"staleness_bound", async_.staleness_bound}});
        }

        acc.resolve(d, accepted ? 2 : 0);
        if (accepted) {
          if (run.tracing(obs::TraceLevel::kDecision)) {
            tracer->emit(obs::TraceLevel::kDecision, "async.arrival",
                         {{"step", st.step},
                          {"user", d.user},
                          {"dispatch_id", d.id},
                          {"staleness", staleness},
                          {"buffered", st.buffer.size() + 1},
                          {"buffer_k", st.effective_k}});
          }
          st.buffer.push_back(std::move(d));
        }

        ++st.resolutions;
        if (accepted && st.effective_k > 0 && st.buffer.size() >= st.effective_k) {
          // Step boundary: aggregate now; the kChurn event it schedules
          // owns the re-dispatch, so churn advances before the next cohort.
          aggregate(/*flush=*/false);
        } else {
          try_dispatch();
        }
        maybe_write_checkpoint();
        break;
      }

      case EventKind::kFault: {
        // Crash burn-out: the client dies crash_fraction of the way
        // through its local update — the cycles burned still cost energy,
        // but nothing ever reaches the uplink.  The crash is its only fault
        // event: unlike the barrier engine, this engine does not also
        // report a crashed client's slowdown.
        const AsyncDispatch d = take_flight(event.tag);
        StepAccum& acc = st.acc;
        st.busy[d.user] = 0;
        acc.step_energy += d.outcome.energy_j;
        acc.step_wasted += d.outcome.energy_j;
        if (batteries_enabled) batteries.drain(d.user, d.outcome.energy_j);
        ++acc.crashed;
        run.emit_fault(st.step, d.user, "crash",
                       {{"crash_fraction", d.outcome.faults.crash_fraction}});
        acc.resolve(d, 0);
        ++st.resolutions;
        try_dispatch();
        maybe_write_checkpoint();
        break;
      }
    }
  }

  return run.finish(st.now);
}

}  // namespace helcfl::fl
