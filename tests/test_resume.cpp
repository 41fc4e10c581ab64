// The checkpoint/resume equivalence matrix (docs/CHECKPOINT.md): for every
// selection strategy, with faults off and with every fault class enabled,
// sequentially and on a 4-thread pool, a run that saves at round k and
// resumes must be bitwise identical to one that never stopped — final
// weights, per-round records, the metrics CSV bytes, and the trace suffix
// from the stored trace_seq.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>

#include "fl/checkpoint.h"
#include "resume_fixtures.h"

namespace helcfl::fl {
namespace {

const testing::ResumeWorld& world() {
  static const testing::ResumeWorld kWorld;
  return kWorld;
}

// (strategy name, faults enabled, worker threads)
using MatrixParam = std::tuple<std::string, bool, std::size_t>;

class ResumeEquivalence : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ResumeEquivalence, SaveKillResumeIsBitwiseIdentical) {
  const auto& [strategy, faults, threads] = GetParam();
  const std::filesystem::path dir = testing::resume_tmp_dir(
      strategy + (faults ? "_faults" : "_clean") + "_t" + std::to_string(threads));

  // Golden: one uninterrupted run that drops a checkpoint every 2 rounds.
  TrainerOptions golden_options = testing::resume_options(faults, threads);
  golden_options.checkpoint_every = 2;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_resume_case(world(), strategy, golden_options);
  ASSERT_EQ(golden.history.size(), testing::kResumeRounds);

  // Resume from the mid-run cadence point (4 completed rounds).
  const std::string ckpt_path = (dir / "ckpt_r4.bin").string();
  ASSERT_TRUE(std::filesystem::exists(ckpt_path));
  const Checkpoint ckpt = Checkpoint::read_file(ckpt_path);
  EXPECT_EQ(ckpt.next_round, 4U);
  // Validate against name(), not the fixture key — configuration variants
  // like "HELCFL-eta1" still checkpoint under "HELCFL".
  EXPECT_EQ(ckpt.strategy_name, testing::make_resume_strategy(strategy)->name());
  EXPECT_EQ(ckpt.records.size(), 4U);

  TrainerOptions resumed_options = testing::resume_options(faults, threads);
  resumed_options.resume_from = ckpt_path;
  const testing::ResumeRun resumed =
      testing::run_resume_case(world(), strategy, resumed_options);

  testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ResumeEquivalence,
    ::testing::Combine(::testing::ValuesIn(testing::resume_strategies()),
                       ::testing::Bool(), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_faults" : "_clean") + "_threads" +
             std::to_string(std::get<2>(info.param));
    });

// Every cadence point is a valid resume origin, not just the middle one.
TEST(ResumeCadence, EveryCadencePointResumesIdentically) {
  const std::filesystem::path dir = testing::resume_tmp_dir("cadence");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/true, 1);
  golden_options.checkpoint_every = 2;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_resume_case(world(), "HELCFL", golden_options);

  for (const std::size_t completed : {2U, 4U, 6U}) {
    const std::string path =
        (dir / ("ckpt_r" + std::to_string(completed) + ".bin")).string();
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const Checkpoint ckpt = Checkpoint::read_file(path);
    EXPECT_EQ(ckpt.next_round, completed);

    TrainerOptions resumed_options = testing::resume_options(/*faults=*/true, 1);
    resumed_options.resume_from = path;
    const testing::ResumeRun resumed =
        testing::run_resume_case(world(), "HELCFL", resumed_options);
    testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
  }
}

// A round whose stop check fires (deadline, target accuracy, convergence)
// writes its cadence checkpoint before the check ends the run.  Resuming
// that checkpoint resumes into the finished run: no extra round runs.
TEST(ResumeStop, SnapshotWhereAStopFiredResumesIntoAFinishedRun) {
  const TrainerOptions base = testing::resume_options(/*faults=*/false, 1);
  const testing::ResumeRun plain = testing::run_resume_case(world(), "HELCFL", base);
  for (const testing::StopCase& stop : testing::stop_cases(plain.history)) {
    SCOPED_TRACE(stop.name);
    const std::filesystem::path dir = testing::resume_tmp_dir("stop_" + stop.name);
    TrainerOptions options = base;
    stop.apply(options);
    TrainerOptions golden_options = options;
    golden_options.checkpoint_every = 1;
    golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
    const testing::ResumeRun golden =
        testing::run_resume_case(world(), "HELCFL", golden_options);
    ASSERT_LT(golden.history.size(), testing::kResumeRounds) << "the stop never fired";

    const std::string path =
        (dir / ("ckpt_r" + std::to_string(golden.history.size()) + ".bin")).string();
    const Checkpoint ckpt = Checkpoint::read_file(path);
    ASSERT_EQ(ckpt.records.size(), golden.history.size());
    TrainerOptions resumed_options = options;
    resumed_options.resume_from = path;
    const testing::ResumeRun resumed =
        testing::run_resume_case(world(), "HELCFL", resumed_options);
    testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
  }
}

// A checkpoint saved by a sequential run resumes bitwise-identically on a
// 4-thread pool and vice versa (the parallel engine's determinism
// guarantee extends across the save/restore boundary).
TEST(ResumeCrossThreads, CheckpointsAreThreadCountPortable) {
  const std::filesystem::path dir = testing::resume_tmp_dir("cross_threads");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/true, 1);
  golden_options.checkpoint_every = 3;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_resume_case(world(), "HELCFL", golden_options);

  const std::string path = (dir / "ckpt_r3.bin").string();
  const Checkpoint ckpt = Checkpoint::read_file(path);
  for (const std::size_t threads : {1U, 4U}) {
    TrainerOptions resumed_options = testing::resume_options(/*faults=*/true, threads);
    resumed_options.resume_from = path;
    const testing::ResumeRun resumed =
        testing::run_resume_case(world(), "HELCFL", resumed_options);
    testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
  }
}

// Mismatched trainer configurations are rejected with actionable errors
// before any state is touched.
TEST(ResumeValidation, MismatchedRunsAreRejected) {
  const std::filesystem::path dir = testing::resume_tmp_dir("validation");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/false, 1);
  golden_options.checkpoint_every = 2;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  testing::run_resume_case(world(), "HELCFL", golden_options);
  const std::string path = (dir / "ckpt_r2.bin").string();

  {  // Wrong strategy.
    TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
    options.resume_from = path;
    EXPECT_THROW(testing::run_resume_case(world(), "FedCS", options),
                 CheckpointError);
  }
  {  // Wrong seed.
    TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
    options.seed = testing::kResumeSeed + 1;
    options.resume_from = path;
    try {
      testing::run_resume_case(world(), "HELCFL", options);
      FAIL() << "seed mismatch accepted";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("seed"), std::string::npos)
          << error.what();
    }
  }
  {  // Missing file.
    TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
    options.resume_from = (dir / "nope.bin").string();
    EXPECT_THROW(testing::run_resume_case(world(), "HELCFL", options),
                 CheckpointError);
  }
}

// TrainerOptions::validate rejects inconsistent checkpoint flags.
TEST(ResumeValidation, OptionValidation) {
  {
    TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
    options.checkpoint_every = 2;  // no path
    EXPECT_THROW(testing::run_resume_case(world(), "HELCFL", options),
                 std::invalid_argument);
  }
  {
    TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
    options.checkpoint_path = "somewhere.bin";  // no cadence
    EXPECT_THROW(testing::run_resume_case(world(), "HELCFL", options),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace helcfl::fl
