// Observability must never perturb the simulation (DESIGN.md §9): with any
// combination of tracing / profiling / counters attached, the training
// trace and final weights must stay bitwise identical to an uninstrumented
// run — and identical across worker counts — because the sinks only read
// values the round already computed (no RNG draws, no reordering).  The
// checkpoints a run writes are output too: the on-vs-off case compares
// them for both round engines.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/helcfl_scheduler.h"
#include "fl/async_trainer.h"
#include "fl/checkpoint.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "obs/instruments.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::fl {
namespace {

constexpr std::size_t kUsers = 12;

struct RunResult {
  TrainingHistory history;
  std::vector<float> final_weights;
  std::uint64_t trace_events = 0;
};

class TraceInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(300, 80, 90);
    util::Rng prng(91);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    devices_ = testing::linear_fleet(kUsers, partition_[0].size());
    for (std::size_t i = 0; i < kUsers; ++i) {
      devices_[i].num_samples = partition_[i].size();
    }
  }

  TrainerOptions base_options(std::size_t num_threads) const {
    TrainerOptions options;
    options.max_rounds = 6;
    options.client.learning_rate = 0.1F;
    options.client.local_steps = 2;
    options.client.batch_size = 16;
    options.model_size_bits = 4e6;
    options.num_threads = num_threads;
    // Faults exercise the churn / fault / quorum / retry emission paths.
    options.faults.enabled = true;
    options.faults.crash_rate = 0.15;
    options.faults.straggler_rate = 0.2;
    options.faults.upload_failure_rate = 0.1;
    options.faults.leave_rate = 0.1;
    options.faults.rejoin_rate = 0.5;
    options.max_upload_retries = 1;
    options.min_clients = 1;
    return options;
  }

  /// `async_engine` runs fl::AsyncTrainer in async mode instead of the
  /// barrier engine.
  RunResult run(const TrainerOptions& options, bool async_engine = false) {
    util::Rng model_rng(92);
    const std::unique_ptr<nn::Sequential> model =
        nn::make_mlp(split_.train.spec(), 16, 10, model_rng);
    core::HelcflScheduler strategy({.fraction = 0.3, .eta = 0.9});
    RunResult result;
    if (async_engine) {
      AsyncOptions async;
      async.mode = AsyncOptions::Mode::kAsync;
      async.buffer_k = 3;
      AsyncTrainer trainer(*model, split_.train, split_.test, partition_, devices_,
                           testing::paper_channel(), strategy, options, async);
      result.history = trainer.run();
    } else {
      FederatedTrainer trainer(*model, split_.train, split_.test, partition_,
                               devices_, testing::paper_channel(), strategy,
                               options);
      result.history = trainer.run();
    }
    result.final_weights = nn::extract_parameters(*model);
    if (options.obs.tracer != nullptr) {
      result.trace_events = options.obs.tracer->event_count();
    }
    return result;
  }

  /// Bitwise comparison: EXPECT_EQ on doubles is equality, not tolerance.
  static void expect_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.final_weights, b.final_weights);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      const RoundRecord& ra = a.history.rounds()[i];
      const RoundRecord& rb = b.history.rounds()[i];
      EXPECT_EQ(ra.selected, rb.selected) << "round " << i;
      EXPECT_EQ(ra.aggregated, rb.aggregated) << "round " << i;
      EXPECT_EQ(ra.round_delay_s, rb.round_delay_s) << "round " << i;
      EXPECT_EQ(ra.round_energy_j, rb.round_energy_j) << "round " << i;
      EXPECT_EQ(ra.train_loss, rb.train_loss) << "round " << i;
      EXPECT_EQ(ra.test_loss, rb.test_loss) << "round " << i;
      EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "round " << i;
      EXPECT_EQ(ra.crashed, rb.crashed) << "round " << i;
      EXPECT_EQ(ra.retries, rb.retries) << "round " << i;
      EXPECT_EQ(ra.quorum_failed, rb.quorum_failed) << "round " << i;
      EXPECT_EQ(ra.wasted_energy_j, rb.wasted_energy_j) << "round " << i;
    }
  }

  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
};

/// A full set of sinks at the chattiest level, over an in-memory stream.
struct Sinks {
  Sinks()
      : tracer(std::make_unique<std::ostringstream>(), obs::TraceLevel::kDebug),
        profiler(&tracer) {}
  obs::Instruments instruments() { return {&tracer, &profiler, &registry}; }
  obs::Tracer tracer;
  obs::PhaseProfiler profiler;
  obs::Registry registry;
};

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every checkpoint the untraced run wrote under `dir` ("plain_r*.bin")
/// must have a byte-identical twin from the traced run ("traced_r*.bin"),
/// except for trace_seq: that field records the tracer's own cursor, so it
/// is zeroed on the traced side (and must be zero on the untraced side).
void expect_same_checkpoints(const std::filesystem::path& dir) {
  std::size_t compared = 0;
  bool saw_evaluated = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("plain_", 0) != 0) continue;
    SCOPED_TRACE(name);
    const std::filesystem::path twin = dir / ("traced_" + name.substr(6));
    ASSERT_TRUE(std::filesystem::exists(twin));
    const Checkpoint plain = Checkpoint::read_file(entry.path().string());
    EXPECT_EQ(plain.trace_seq, 0U);
    saw_evaluated = saw_evaluated || plain.best_accuracy >= 0.0;
    Checkpoint traced = Checkpoint::read_file(twin.string());
    traced.trace_seq = 0;
    const std::vector<std::uint8_t> traced_bytes = traced.serialize();
    EXPECT_EQ(file_bytes(entry.path()),
              std::string(traced_bytes.begin(), traced_bytes.end()));
    ++compared;
  }
  EXPECT_GE(compared, 2U);
  // Some snapshot follows an evaluation, so best_accuracy is exercised.
  EXPECT_TRUE(saw_evaluated);
  std::size_t traced_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    traced_files += entry.path().filename().string().rfind("traced_", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(traced_files, compared);
}

TEST_F(TraceInvarianceTest, TracingOnVsOffIsBitwiseIdentical) {
  for (const bool async_engine : {false, true}) {
    SCOPED_TRACE(async_engine ? "async engine" : "barrier engine");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("helcfl_trace_invariance_" + std::to_string(::getpid()) +
         (async_engine ? "_async" : "_sync"));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    TrainerOptions untraced = base_options(1);
    untraced.checkpoint_every = 2;
    untraced.checkpoint_path = (dir / "plain_r{round}.bin").string();
    const RunResult plain = run(untraced, async_engine);

    Sinks sinks;
    TrainerOptions traced = base_options(1);
    traced.checkpoint_every = 2;
    traced.checkpoint_path = (dir / "traced_r{round}.bin").string();
    traced.obs = sinks.instruments();
    const RunResult instrumented = run(traced, async_engine);

    expect_identical(plain, instrumented);
    // The instrumented run really did trace and count.
    EXPECT_GT(instrumented.trace_events, 0U);
    EXPECT_GT(sinks.profiler.span_count(), 0U);
    EXPECT_GT(sinks.registry.counter("rounds.completed"), 0U);
    expect_same_checkpoints(dir);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(TraceInvarianceTest, ThreadCountInvariantWithTracingEnabled) {
  Sinks sinks1;
  TrainerOptions sequential = base_options(1);
  sequential.obs = sinks1.instruments();
  const RunResult threads1 = run(sequential);

  Sinks sinks4;
  TrainerOptions parallel = base_options(4);
  parallel.obs = sinks4.instruments();
  const RunResult threads4 = run(parallel);

  expect_identical(threads1, threads4);
  // Emission happens on the coordinator in deterministic order except the
  // per-client debug spans, whose completion order may differ — but every
  // event both runs emit must exist in both (same count per event type is
  // implied by identical outcomes; spot-check the totals).
  EXPECT_GT(threads1.trace_events, 0U);
  EXPECT_GT(threads4.trace_events, 0U);
  EXPECT_EQ(sinks1.registry.counter("clients.selected"),
            sinks4.registry.counter("clients.selected"));
  EXPECT_EQ(sinks1.registry.counter("clients.crashed"),
            sinks4.registry.counter("clients.crashed"));
  EXPECT_EQ(sinks1.registry.counter("uploads.retries"),
            sinks4.registry.counter("uploads.retries"));
}

TEST_F(TraceInvarianceTest, FaultFreeRunAlsoInvariant) {
  TrainerOptions options = base_options(2);
  options.faults = {};  // injector inactive: no churn/fault events
  const RunResult plain = run(options);

  Sinks sinks;
  TrainerOptions traced = options;
  traced.obs = sinks.instruments();
  const RunResult instrumented = run(traced);

  expect_identical(plain, instrumented);
}

}  // namespace
}  // namespace helcfl::fl
