// FL workloads of the benchmark: `paper_sync` (the paper configuration on
// the barrier engine) and `async_faults` (the same fleet and model on the
// event-driven engine with injected faults and cadenced checkpoints).
//
// Every call into the program is timed here, from outside it: the set-up
// steps one by one, the trainer constructor, and FederatedTrainer::run /
// AsyncTrainer::run.  A traced repetition additionally attaches the
// program's own obs::PhaseProfiler and obs::Registry, and runs a model
// whose layers are wrapped in TimedLayer, a timing decorator over a clone
// of each layer.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "data/partition.h"
#include "data/synthetic_cifar.h"
#include "core/helcfl_scheduler.h"
#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "nn/dense.h"
#include "nn/serialize.h"
#include "obs/registry.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "sim/report.h"

namespace perfbench {
namespace {

using namespace helcfl;
namespace fs = std::filesystem;

// The learning task -- the synthetic dataset and its non-IID split over
// the 100 users -- is fixed, like CIFAR-10 in the paper; --seed draws the
// fleet, the initial model and every training and fault stream.  Stream
// ids are those of sim::run_experiment, so `--seed 7` trains exactly what
// `helcfl_cli --seed=7` trains.
constexpr std::uint64_t kTaskSeed = 7;
constexpr std::uint64_t kDatasetStream = 1;
constexpr std::uint64_t kPartitionStream = 2;
constexpr std::uint64_t kFleetStream = 3;
constexpr std::uint64_t kModelStream = 4;
constexpr std::uint64_t kTrainingStream = 6;

// Accuracy floors under the lowest value seen over seeds 1-12 (paper_sync
// final 0.681, async_faults best 0.724): a change that alters the
// arithmetic enough to lose accuracy fails the run.  paper_sync is judged
// on its final evaluation, async_faults on its best one.
constexpr double kPaperSyncLastFloor = 0.66;
constexpr double kAsyncFaultsBestFloor = 0.70;

/// Where a repetition's checkpoints go; emptied around every repetition.
std::string checkpoint_dir(const std::string& workdir) {
  return workdir + "/checkpoints";
}

sim::ExperimentConfig workload_config(bool async, std::uint64_t seed,
                                      std::size_t threads, const std::string& workdir) {
  // helcfl_cli defaults: HELCFL, non-IID, Q = 100, C = 0.1, J = 300, MLP,
  // evaluation every 5 rounds.
  sim::ExperimentConfig config = sim::paper_config();
  config.scheme = sim::Scheme::kHelcfl;
  config.noniid = true;
  config.seed = seed;
  config.trainer.eval_every = 5;
  config.trainer.num_threads = threads;
  if (async) {
    config.async.mode = fl::AsyncOptions::Mode::kAsync;
    config.trainer.faults.straggler_rate = 0.10;
    config.trainer.faults.crash_rate = 0.05;
    config.trainer.faults.upload_failure_rate = 0.05;
    config.trainer.faults.enabled = true;
    config.trainer.max_upload_retries = 2;
    config.trainer.checkpoint_every = 100;
    config.trainer.checkpoint_path = checkpoint_dir(workdir) + "/ckpt_{round}.bin";
  }
  return config;
}

// ---------------------------------------------------------------------------
// Layer timing decorator.

/// Time and work of one model layer, shared by every replica of it (the
/// trainer clones one model per pool worker).
struct LayerClock {
  std::string label;  ///< "<index>_<kind>", e.g. "1_dense"
  std::atomic<std::uint64_t> forward_ns{0};   ///< training-mode forward
  std::atomic<std::uint64_t> eval_ns{0};      ///< inference-mode forward
  std::atomic<std::uint64_t> backward_ns{0};
  std::atomic<std::uint64_t> flops{0};        ///< Dense GEMM FLOPs only
  bool dense = false;
};

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

/// Forwards every Layer call to `inner_` and adds the call's wall time to
/// the shared LayerClock.  Parameters, state buffers and weight-cache
/// invalidation all go straight to the wrapped layer, so the arithmetic
/// is the wrapped layer's own.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::unique_ptr<nn::Layer> inner, std::shared_ptr<LayerClock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {
    if (const auto* dense = dynamic_cast<const nn::Dense*>(inner_.get())) {
      macs_per_row_ = dense->in_features() * dense->out_features();
    }
  }

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override {
    const auto start = Clock::now();
    tensor::Tensor output = inner_->forward(input, training);
    (training ? clock_->forward_ns : clock_->eval_ns) += elapsed_ns(start);
    clock_->flops += 2 * macs_per_row_ * rows(input);
    return output;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    const auto start = Clock::now();
    tensor::Tensor grad_input = inner_->backward(grad_output);
    clock_->backward_ns += elapsed_ns(start);
    // dX = dY W^T and dW = X^T dY: two GEMMs of the forward's size.
    clock_->flops += 4 * macs_per_row_ * rows(grad_output);
    return grad_input;
  }

  std::vector<nn::ParamRef> params() override { return inner_->params(); }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<TimedLayer>(inner_->clone(), clock_);
  }
  std::vector<std::span<float>> state_buffers() override {
    return inner_->state_buffers();
  }
  void mark_weights_dirty() override { inner_->mark_weights_dirty(); }
  std::string name() const override { return inner_->name(); }

 private:
  static std::uint64_t rows(const tensor::Tensor& t) {
    return t.shape().rank() == 0 ? 0 : t.shape().dim(0);
  }

  std::unique_ptr<nn::Layer> inner_;
  std::shared_ptr<LayerClock> clock_;
  std::uint64_t macs_per_row_ = 0;
};

/// "Dense(192->64)" -> "dense".
std::string layer_kind(const std::string& name) {
  std::string kind;
  for (const char c : name) {
    if (c == '(') break;
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

/// A Sequential whose i-th layer is a TimedLayer over a clone of `model`'s
/// i-th layer.  `clocks` receives one clock per layer.
std::unique_ptr<nn::Sequential> decorate(
    nn::Sequential& model, std::vector<std::shared_ptr<LayerClock>>& clocks) {
  auto timed = std::make_unique<nn::Sequential>();
  clocks.clear();
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    auto clock = std::make_shared<LayerClock>();
    clock->label = std::to_string(i) + "_" + layer_kind(model.layer(i).name());
    clock->dense = dynamic_cast<nn::Dense*>(&model.layer(i)) != nullptr;
    clocks.push_back(clock);
    timed->add(std::make_unique<TimedLayer>(model.layer(i).clone(), clock));
  }
  return timed;
}

// ---------------------------------------------------------------------------
// Per-step latency.

/// HELCFL as sim::make_strategy builds it, plus a timestamp at each
/// report_completion(), which both engines call once per server
/// aggregation step: the interval between two calls is one step's
/// latency, read without tracing the program.
class StepTimedHelcfl final : public core::HelcflScheduler {
 public:
  explicit StepTimedHelcfl(const sim::ExperimentConfig& config)
      : HelcflScheduler({config.fraction, config.eta, /*enable_dvfs=*/true}) {}

  void start() { last_ = Clock::now(); }

  void report_completion(std::size_t round, const sched::Decision& decision,
                         std::span<const std::uint8_t> completed) override {
    HelcflScheduler::report_completion(round, decision, completed);
    const auto now = Clock::now();
    step_ms.push_back(std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
  }

  std::vector<double> step_ms;

 private:
  Clock::time_point last_ = Clock::now();
};

// ---------------------------------------------------------------------------
// One repetition: set up, run, digest.

struct Rep {
  double synth_s = 0, partition_s = 0, fleet_s = 0, init_s = 0,
         strategy_s = 0, trainer_s = 0, run_s = 0;
  std::size_t rounds = 0;
  std::size_t quorum_failed = 0;
  double final_accuracy = 0.0;  ///< last evaluated round
  double best_accuracy = 0.0;
  std::uint64_t digest = 0;     ///< final weights + history CSV bytes
  std::size_t checkpoint_files = 0;
  double checkpoint_mb = 0.0;
  std::uint64_t run_start_us = 0, run_end_us = 0;  ///< profiler timebase
  std::vector<double> step_ms;  ///< wall time of each aggregation step

  double setup_s() const {
    return synth_s + partition_s + fleet_s + init_s + strategy_s + trainer_s;
  }
};

/// Seconds since `mark`, restarting it.
double lap(Clock::time_point& mark) {
  const double s = seconds_since(mark);
  mark = Clock::now();
  return s;
}

Rep run_rep(const sim::ExperimentConfig& config, const std::string& workdir,
            obs::Instruments obs,
            std::vector<std::shared_ptr<LayerClock>>* clocks) {
  const std::string checkpoints = checkpoint_dir(workdir);
  fs::remove_all(checkpoints);
  fs::create_directories(checkpoints);

  Rep rep;
  const util::Rng task(kTaskSeed);
  const util::Rng master(config.seed);
  auto mark = Clock::now();

  util::Rng dataset_rng = task.fork(kDatasetStream);
  const data::TrainTestSplit split =
      data::make_synthetic_cifar(config.dataset, dataset_rng);
  rep.synth_s = lap(mark);

  util::Rng partition_rng = task.fork(kPartitionStream);
  const data::Partition partition = data::shard_noniid_partition(
      split.train.labels(), config.n_users, config.shards_per_user, partition_rng);
  rep.partition_s = lap(mark);

  std::vector<std::size_t> samples_per_user;
  for (const auto& slice : partition) samples_per_user.push_back(slice.size());
  util::Rng fleet_rng = master.fork(kFleetStream);
  const std::vector<mec::Device> devices =
      sim::make_fleet(config, samples_per_user, fleet_rng);
  const mec::Channel channel = sim::make_channel(config);
  rep.fleet_s = lap(mark);

  util::Rng model_rng = master.fork(kModelStream);
  std::unique_ptr<nn::Sequential> model = nn::make_model(
      config.model, split.train.spec(), config.dataset.num_classes, model_rng);
  rep.init_s = lap(mark);
  if (clocks != nullptr) model = decorate(*model, *clocks);

  mark = Clock::now();
  fl::TrainerOptions options = config.trainer;
  options.seed = master.fork(kTrainingStream).next_u64();
  options.obs = obs;
  const std::vector<sched::UserInfo> users =
      sched::build_user_info(devices, channel, options.model_size_bits);
  StepTimedHelcfl strategy(config);
  rep.strategy_s = lap(mark);

  auto profiler_now = [&] {
    return obs.profiler != nullptr ? obs.profiler->now_us() : 0;
  };
  fl::TrainingHistory history;
  if (config.async.mode == fl::AsyncOptions::Mode::kAsync) {
    fl::AsyncTrainer trainer(*model, split.train, split.test, partition, devices,
                             channel, strategy, options, config.async);
    rep.trainer_s = lap(mark);
    rep.run_start_us = profiler_now();
    strategy.start();
    history = trainer.run();
    rep.run_s = lap(mark);
    rep.run_end_us = profiler_now();
  } else {
    fl::FederatedTrainer trainer(*model, split.train, split.test, partition,
                                 devices, channel, strategy, options);
    rep.trainer_s = lap(mark);
    rep.run_start_us = profiler_now();
    strategy.start();
    history = trainer.run();
    rep.run_s = lap(mark);
    rep.run_end_us = profiler_now();
  }

  rep.step_ms = std::move(strategy.step_ms);
  rep.rounds = history.size();
  rep.quorum_failed = history.failed_round_count();
  rep.best_accuracy = history.best_accuracy();
  for (auto it = history.rounds().rbegin(); it != history.rounds().rend(); ++it) {
    if (it->evaluated) {
      rep.final_accuracy = it->test_accuracy;
      break;
    }
  }

  const std::vector<float> weights = nn::extract_parameters(*model);
  const std::string csv_path = workdir + "/history.csv";
  sim::write_history_csv(csv_path, history);
  rep.digest = fnv1a({reinterpret_cast<const std::uint8_t*>(weights.data()),
                      weights.size() * sizeof(float)});
  rep.digest = fnv1a(read_file(csv_path), rep.digest);

  for (const auto& entry : fs::directory_iterator(checkpoints)) {
    ++rep.checkpoint_files;
    rep.checkpoint_mb += static_cast<double>(entry.file_size()) / (1024.0 * 1024.0);
  }
  fs::remove_all(checkpoints);
  return rep;
}

/// One traced repetition: profiler + registry attached, layers decorated.
/// Appends its per-layer figures to `report` and returns the repetition.
Rep traced_rep(const sim::ExperimentConfig& config, const std::string& workdir,
               Report& report) {
  SpanRecorder recorder;
  obs::Registry registry;
  std::vector<std::shared_ptr<LayerClock>> clocks;
  const Rep rep =
      run_rep(config, workdir, {nullptr, &recorder.profiler(), &registry}, &clocks);
  const std::vector<Span> spans = recorder.spans();
  auto counter = [&](std::string_view name) {
    return static_cast<double>(registry.counter(name));
  };

  report.layer("data.synth_s", rep.synth_s);
  report.layer("data.partition_s", rep.partition_s);
  report.layer("sim.fleet_s", rep.fleet_s);
  report.layer("nn.init_s", rep.init_s);
  report.layer("sim.strategy_s", rep.strategy_s);
  report.layer("fl.trainer_init_s", rep.trainer_s);
  report.layer("fl.final_accuracy", rep.final_accuracy);

  const double train_s = total_s(spans, "local_training");
  const double client_s = total_s(spans, "client");
  report.layer("fl.train_s", train_s);
  report.layer("fl.client_s", client_s);
  for (const Span& span : spans) {
    if (span.phase == "client") {
      report.samples["fl.client_ms"].push_back(static_cast<double>(span.dur_us) * 1e-3);
    }
  }
  report.layer("fl.clients_trained", counter("clients.trained"));

  report.layer("fl.checkpoint_s", total_s(spans, "checkpoint"));
  report.layer("fl.checkpoint_writes", static_cast<double>(rep.checkpoint_files));
  report.layer("fl.checkpoint_mb", rep.checkpoint_mb);
  report.check("checkpoint_files_match_spans",
               static_cast<double>(rep.checkpoint_files) == span_count(spans, "checkpoint"));

  report.layer("fl.aggregate_s", total_s(spans, "aggregation"));
  report.layer("fl.eval_s", total_s(spans, "evaluation"));
  const double selected = counter("clients.selected");
  report.layer("fl.useful_ratio",
               selected > 0 ? counter("clients.aggregated") / selected : 0.0);
  report.layer("fl.staleness_mean",
               registry.gauge("async.staleness_mean").value_or(0.0));
  report.layer("fl.upload_retries", counter("uploads.retries"));

  double forward_backward_s = 0.0;
  double dense_s = 0.0;
  double dense_flops = 0.0;
  for (const auto& clock : clocks) {
    const double forward_s = static_cast<double>(clock->forward_ns.load()) * 1e-9;
    const double backward_s = static_cast<double>(clock->backward_ns.load()) * 1e-9;
    report.layer("nn." + clock->label + ".forward_s", forward_s);
    report.layer("nn." + clock->label + ".backward_s", backward_s);
    forward_backward_s += forward_s + backward_s;
    if (clock->dense) {
      dense_s += forward_s + backward_s +
                 static_cast<double>(clock->eval_ns.load()) * 1e-9;
      dense_flops += static_cast<double>(clock->flops.load());
    }
  }
  report.layer("nn.update_s", client_s - forward_backward_s);
  report.layer("tensor.dense_gflops", dense_s > 0 ? dense_flops / dense_s * 1e-9 : 0.0);
  report.layer("tensor.scratch_reallocs", counter("kernel.scratch_reallocs"));

  report.layer("core.select_s", total_s(spans, "greedy_decay"));
  report.layer("core.dvfs_s", total_s(spans, "freq_determination"));
  report.layer("core.select_calls", span_count(spans, "greedy_decay"));

  report.layer("trace.unattributed_ratio",
               unattributed_ratio(spans, rep.run_start_us, rep.run_end_us));
  return rep;
}

}  // namespace

Report run_fl(const RunArgs& args) {
  const bool async = args.workload == "async_faults";
  fs::create_directories(args.workdir);
  // Timed repetitions run the sequential reference path.  On a shared
  // host the N-thread engine's wall time swings with every co-tenant (each
  // round wakes N workers), so N threads is exercised by the checks and
  // the scaling figures instead.
  const sim::ExperimentConfig config = workload_config(async, args.seed, 1, args.workdir);
  const sim::ExperimentConfig parallel_config =
      workload_config(async, args.seed, args.threads, args.workdir);

  Report report;
  std::optional<std::uint64_t> reference;
  // An operation is one server aggregation step.  A step fails when its
  // repetition's digest differs from the first repetition's, or when it
  // missed its quorum and kept the previous model.
  auto account = [&](const Rep& rep, const char* check) {
    if (!reference) {
      reference = rep.digest;
      report.digest = hex(rep.digest);
    }
    const bool same = rep.digest == *reference;
    report.check(check, same, hex(rep.digest) + " != " + hex(*reference));
    report.attempted += rep.rounds;
    report.failed += same ? rep.quorum_failed : rep.rounds;
    if (async) {
      report.check("accuracy_floor", rep.best_accuracy >= kAsyncFaultsBestFloor,
                   "best " + std::to_string(rep.best_accuracy));
    } else {
      report.check("accuracy_floor", rep.final_accuracy >= kPaperSyncLastFloor,
                   "last " + std::to_string(rep.final_accuracy));
      report.check("all_rounds_run", rep.rounds == config.trainer.max_rounds);
    }
  };
  auto record = [&](const Rep& rep) {
    report.samples["ops_per_s"].push_back(static_cast<double>(rep.rounds) / rep.run_s);
    report.samples["setup_s"].push_back(rep.setup_s());
    std::vector<double>& op_ms = report.samples["op_ms"];
    op_ms.insert(op_ms.end(), rep.step_ms.begin(), rep.step_ms.end());
    report.samples["run_s"].push_back(rep.run_s);
  };

  // One warm-up repetition (caches and allocator warm) is checked but not
  // timed.  Untraced repetitions then fill the window (half of it when a
  // traced pass follows) and run at least kMinOps steps.
  account(run_rep(config, args.workdir, {}, nullptr), "digest_repeat");
  const double untraced_window = args.trace ? args.seconds / 2 : args.seconds;
  const auto window = Clock::now();
  std::size_t steps = 0;
  while (steps < kMinOps || seconds_since(window) < untraced_window) {
    const Rep rep = run_rep(config, args.workdir, {}, nullptr);
    account(rep, "digest_repeat");
    record(rep);
    steps += rep.rounds;
  }

  if (args.trace) {
    const auto traced_window = Clock::now();
    for (std::size_t n = 0; n < 2 || seconds_since(traced_window) < args.seconds / 2;
         ++n) {
      const Rep rep = traced_rep(config, args.workdir, report);
      account(rep, "digest_traced_equals_untraced");
      report.samples["traced_run_s"].push_back(rep.run_s);
    }
    // The pool at N threads: share of worker time spent in client work.
    SpanRecorder recorder;
    account(run_rep(parallel_config, args.workdir, {nullptr, &recorder.profiler(), nullptr},
                    nullptr),
            "digest_threads_1_equals_n");
    const std::vector<Span> spans = recorder.spans();
    const double train_s = total_s(spans, "local_training");
    report.layer("fl.pool_busy_ratio",
                 train_s > 0 ? total_s(spans, "client") /
                                   (train_s * static_cast<double>(args.threads))
                             : 0.0);
  }

  // Outside the window: the N-thread engine must agree bitwise; its wall
  // time against the timed repetitions gives the scaling efficiency.
  const Rep parallel = run_rep(parallel_config, args.workdir, {}, nullptr);
  account(parallel, "digest_threads_1_equals_n");
  report.samples["parallel_run_s"].push_back(parallel.run_s);
  report.values["threads"] = static_cast<double>(args.threads);
  return report;
}

}  // namespace perfbench
