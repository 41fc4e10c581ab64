#include "fl/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fl/round_steps.h"
#include "fl/server.h"
#include "mec/tdma.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/log.h"

namespace helcfl::fl {

void TrainerOptions::validate(std::size_t n_users) const {
  if (eval_every == 0) {
    throw std::invalid_argument(
        "TrainerOptions: eval_every must be >= 1 (it is the modulus of the "
        "evaluation cadence; use a large value to evaluate rarely)");
  }
  if (num_threads > kMaxThreads) {
    throw std::invalid_argument(
        "TrainerOptions: num_threads = " + std::to_string(num_threads) +
        " exceeds the ceiling of " + std::to_string(kMaxThreads) +
        " (each worker holds a model replica); use 0 for one worker per "
        "hardware thread");
  }
  if (eval_batch == 0) {
    throw std::invalid_argument(
        "TrainerOptions: eval_batch must be >= 1 (0 would make evaluation loop "
        "forever)");
  }
  if (std::isnan(deadline_s) || deadline_s < 0.0) {
    throw std::invalid_argument(
        "TrainerOptions: deadline_s = " + std::to_string(deadline_s) +
        " must be >= 0 (use infinity, the default, for no deadline)");
  }
  if (!(model_size_bits > 0.0) || !std::isfinite(model_size_bits)) {
    throw std::invalid_argument(
        "TrainerOptions: model_size_bits = " + std::to_string(model_size_bits) +
        " must be a positive finite payload (Eq. 7 divides by the uplink rate; "
        "a non-positive size makes delay and energy meaningless)");
  }
  if (min_clients == 0) {
    throw std::invalid_argument(
        "TrainerOptions: min_clients must be >= 1 (FedAvg over zero survivors "
        "is undefined; 1 restores the pre-quorum behaviour)");
  }
  if (n_users > 0 && min_clients > n_users) {
    throw std::invalid_argument(
        "TrainerOptions: min_clients = " + std::to_string(min_clients) +
        " exceeds the fleet size " + std::to_string(n_users) +
        "; no round could ever meet its quorum");
  }
  if (std::isnan(retry_backoff_s) || retry_backoff_s < 0.0) {
    throw std::invalid_argument("TrainerOptions: retry_backoff_s must be >= 0");
  }
  if (std::isnan(straggler_cutoff_s) || straggler_cutoff_s <= 0.0) {
    throw std::invalid_argument(
        "TrainerOptions: straggler_cutoff_s must be positive (use infinity, "
        "the default, to wait for every upload)");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "TrainerOptions: checkpoint_every = " + std::to_string(checkpoint_every) +
        " but checkpoint_path is empty; set checkpoint_path to the file the "
        "snapshots should be written to");
  }
  if (checkpoint_every == 0 && !checkpoint_path.empty()) {
    throw std::invalid_argument(
        "TrainerOptions: checkpoint_path = '" + checkpoint_path +
        "' but checkpoint_every is 0, so no checkpoint would ever be written; "
        "set checkpoint_every >= 1 (or clear checkpoint_path)");
  }
  faults.validate();
}

FederatedTrainer::FederatedTrainer(nn::Sequential& model, const data::Dataset& train,
                                   const data::Dataset& test,
                                   const data::Partition& partition,
                                   std::span<const mec::Device> devices,
                                   const mec::Channel& channel,
                                   sched::SelectionStrategy& strategy,
                                   TrainerOptions options)
    : world_(std::make_unique<detail::RoundWorld>("FederatedTrainer", model, train, test,
                                                  partition, devices, channel, strategy,
                                                  std::move(options))) {}

FederatedTrainer::~FederatedTrainer() = default;

TrainingHistory FederatedTrainer::run() {
  detail::RoundWorld& world = *world_;
  const TrainerOptions& options = world.options;
  const std::vector<sched::UserInfo>& users = world.users;
  mec::BatteryFleet& batteries = world.batteries;
  detail::RunState run(world);
  obs::Tracer* const tracer = run.tracer;
  obs::PhaseProfiler* const profiler = run.profiler;
  const bool batteries_enabled = run.batteries_enabled;
  mec::FaultInjector& injector = run.injector;
  double cum_delay = 0.0;

  // Checkpoint resume (DESIGN.md §11): a rejected checkpoint leaves this
  // trainer exactly as it was, and a subsequent run() behaves as if the
  // resume was never attempted.
  std::size_t start_round = 0;
  bool stopped = false;
  if (const std::optional<Checkpoint> ckpt = run.resume(/*async_engine=*/false)) {
    cum_delay = ckpt->cum_delay_s;
    start_round = static_cast<std::size_t>(ckpt->next_round);
    // The snapshot was written before the stop check of its last round; a
    // churn-skipped round (nothing selected) had no check.
    stopped = !ckpt->records.empty() && !ckpt->records.back().selected.empty() &&
              run.should_stop("round");
  }
  run.emit_run_start();
  if (start_round > 0) run.emit_resumed(start_round, cum_delay);

  // Cadenced snapshot writer.  Called after the round's record is added on
  // every path that completes a round (including churn-skipped rounds), so
  // the stored trace_seq sits exactly at the boundary the resumed run
  // re-emits from.
  const auto maybe_write_checkpoint = [&](std::size_t round) {
    const std::size_t completed = round + 1;
    if (options.checkpoint_every == 0 || completed % options.checkpoint_every != 0) {
      return;
    }
    obs::ScopedSpan span(profiler, "checkpoint", static_cast<std::int64_t>(round));
    run.write_checkpoint(run.snapshot(completed, cum_delay), completed, round);
  };

  for (std::size_t round = start_round; !stopped && round < options.max_rounds; ++round) {
    if (batteries_enabled && batteries.alive_count() == 0) {
      util::log_info("FederatedTrainer: whole fleet depleted after round " +
                     std::to_string(round));
      break;
    }

    // Availability churn advances once per round, before selection.
    injector.begin_round();

    // Line 4: select users and determine their frequencies.  The strategy
    // only sees devices that are both charged (battery extension) and
    // present (churn); with fading it ranks users by the (stale) delays of
    // the init phase.
    sched::FleetView fleet{users};
    std::vector<std::uint8_t> selectable;
    if (batteries_enabled || !injector.availability().empty()) {
      selectable.resize(users.size());
      for (std::size_t i = 0; i < users.size(); ++i) selectable[i] = run.selectable(i);
      fleet.alive = selectable;
    }
    const std::size_t available = fleet.alive_count();

    if (run.tracing(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "round_start",
                   {{"round", round},
                    {"available", available},
                    {"alive", run.alive_users()}});
    }

    sched::Decision decision;
    {
      obs::ScopedSpan selection_span(profiler, "selection",
                                     static_cast<std::int64_t>(round));
      if (available > 0) decision = world.strategy.decide(fleet, round);
    }
    if (decision.selected.empty()) {
      if (injector.active() && injector.away_count() > 0) {
        // Churn emptied the selectable fleet this round; that is transient
        // (rejoin_rate > 0), so record a failed round and keep going.
        run.skip_round(round, cum_delay, available);
        maybe_write_checkpoint(round);
        continue;
      }
      util::log_info("FederatedTrainer: strategy returned no users; stopping");
      break;
    }
    if (decision.selected.size() != decision.frequencies_hz.size()) {
      throw std::logic_error("FederatedTrainer: strategy returned a bad decision");
    }

    run.fading.step();

    // Per-client inputs resolved on the coordinator thread, in selection
    // order.  fork() is keyed on (round, user) alone, so a client's
    // mini-batch draws and fault outcomes are the same no matter when or
    // where its task runs.
    const std::size_t cohort = decision.selected.size();
    std::vector<detail::ClientTask> tasks;
    tasks.reserve(cohort);
    for (std::size_t k = 0; k < cohort; ++k) {
      tasks.push_back(run.resolve_client(
          fleet, decision, k, round * users.size() + decision.selected[k], round));
    }

    // Lines 6-9: local updates in parallel (now literally), uploads
    // serialized by TDMA.
    const std::vector<detail::ClientOutcome> outcomes =
        run.train_cohort(tasks, "round", round);

    // TDMA serialization over the clients that actually transmit (crashed
    // clients never reach the uplink).  A failed attempt occupies the
    // channel exactly like a successful one.
    std::vector<std::size_t> transmitting;  // cohort indices, selection order
    std::vector<double> tx_compute_delays;
    std::vector<double> tx_occupancies;
    for (std::size_t k = 0; k < cohort; ++k) {
      if (!outcomes[k].trained) continue;
      transmitting.push_back(k);
      tx_compute_delays.push_back(outcomes[k].compute_delay_s);
      tx_occupancies.push_back(outcomes[k].occupancy_s);
    }
    const mec::TdmaSchedule schedule =
        mec::schedule_uploads(tx_compute_delays, tx_occupancies);

    // Straggler cutoff: the server closes the round at the cutoff or when
    // the last upload lands, whichever is earlier; updates completing after
    // the cutoff are discarded.
    const double cutoff = options.straggler_cutoff_s;
    std::vector<std::uint8_t> accepted(cohort, 0);      // entered FedAvg
    std::vector<std::uint8_t> dropped_late(cohort, 0);  // landed after the cutoff
    for (const mec::UploadSlot& slot : schedule.slots) {
      const std::size_t k = transmitting[slot.index];
      if (outcomes[k].faults.upload_ok) {
        (slot.upload_end <= cutoff ? accepted : dropped_late)[k] = 1;
      }
      // TDMA telemetry in grant order — the Fig.-1 timeline.
      run.emit_tdma(round, decision.selected[k], outcomes[k].attempts, slot,
                    accepted[k] != 0, dropped_late[k] != 0);
    }
    const double round_delay = std::min(schedule.round_delay_s, cutoff);

    // Fault telemetry, selection order: what the injector (and the cutoff)
    // actually did to this cohort.  Reads only the pre-drawn fault records
    // and the TDMA outcome — emitting changes no draw.
    for (std::size_t k = 0; k < cohort; ++k) {
      const std::size_t user = decision.selected[k];
      const mec::ClientFaults& faults = outcomes[k].faults;
      if (faults.crashed) {
        run.emit_fault(round, user, "crash", {{"crash_fraction", faults.crash_fraction}});
      }
      if (faults.slowdown > 1.0) {
        run.emit_fault(round, user, "straggler", {{"slowdown", faults.slowdown}});
      }
      if (faults.failed_attempts > 0) {
        run.emit_fault(round, user, "upload_failure",
                       {{"failed_attempts", faults.failed_attempts},
                        {"upload_ok", faults.upload_ok}});
      }
      if (dropped_late[k] != 0) {
        run.emit_fault(round, user, "dropped_late", {{"cutoff_s", cutoff}});
      }
    }

    // Ordered reduction (selection order), identical to the sequential loop.
    obs::ScopedSpan aggregation_span(profiler, "aggregation",
                                     static_cast<std::int64_t>(round));
    RoundRecord record;
    std::vector<std::size_t> survivors;  // cohort indices, selection order
    double train_loss_sum = 0.0;
    std::size_t trained_count = 0;
    for (std::size_t k = 0; k < cohort; ++k) {
      const detail::ClientOutcome& outcome = outcomes[k];
      if (outcome.trained) {
        train_loss_sum += outcome.update.train_loss;
        ++trained_count;
        record.retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
        if (!outcome.faults.upload_ok) ++record.upload_failures;
        if (dropped_late[k] != 0) ++record.dropped_late;
        if (accepted[k] != 0) survivors.push_back(k);
      } else {
        ++record.crashed;
      }
      record.round_energy_j += outcome.energy_j;
      if (accepted[k] == 0) record.wasted_energy_j += outcome.energy_j;
    }

    // Quorum rule: with fewer than min_clients surviving updates the FLCC
    // keeps the previous global model — a failed round costs its delay and
    // energy but moves no weights and feeds no strategy statistics.
    const bool quorum_met = survivors.size() >= options.min_clients;
    if (!quorum_met && run.tracing(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "quorum",
                   {{"round", round},
                    {"survivors", survivors.size()},
                    {"min_clients", options.min_clients}});
    }
    if (quorum_met) {
      // Line 10: FedAvg integration (Eq. 18) — denominators are the
      // survivors' sample counts only.
      std::vector<WeightedModel> uploads;
      std::vector<double> client_losses;
      sched::Decision survivor_decision;
      for (const std::size_t k : survivors) {
        uploads.push_back({outcomes[k].update.weights, outcomes[k].update.num_samples});
        client_losses.push_back(outcomes[k].update.train_loss);
        survivor_decision.selected.push_back(decision.selected[k]);
        survivor_decision.frequencies_hz.push_back(decision.frequencies_hz[k]);
        record.aggregated.push_back(decision.selected[k]);
      }
      run.global_weights = fedavg(uploads);
      world.strategy.observe(round, survivor_decision, client_losses);
    } else {
      record.wasted_energy_j = record.round_energy_j;  // nothing entered the model
    }

    // Completion feedback: selection-time strategy state (α_q counters,
    // FedCS's deadline set, Oort's reliability view) must only count
    // clients whose data actually entered the model.
    std::vector<std::uint8_t> completed(cohort, 0);
    if (quorum_met) {
      for (const std::size_t k : survivors) completed[k] = 1;
    }
    world.strategy.report_completion(round, decision, completed);
    aggregation_span.finish();

    if (batteries_enabled) {
      for (std::size_t k = 0; k < cohort; ++k) {
        batteries.drain(decision.selected[k], outcomes[k].energy_j);
      }
    }

    cum_delay += round_delay;
    run.cum_energy += record.round_energy_j;

    record.round = round;
    record.selected = decision.selected;
    record.round_delay_s = round_delay;
    record.cum_delay_s = cum_delay;
    record.cum_energy_j = run.cum_energy;
    record.train_loss =
        trained_count > 0 ? train_loss_sum / static_cast<double>(trained_count) : 0.0;
    record.alive_users = run.alive_users();
    record.available_users = available;
    record.survivors = record.aggregated.size();
    record.quorum_failed = !quorum_met;

    run.close_step(std::move(record), trained_count, round + 1 == options.max_rounds);
    maybe_write_checkpoint(round);
    if (run.should_stop("round")) break;
  }

  return run.finish(cum_delay);
}

}  // namespace helcfl::fl
