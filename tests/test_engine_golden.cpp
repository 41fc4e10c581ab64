// Golden digests of both round engines.
//
// The barrier engine (fl::FederatedTrainer, AsyncOptions::Mode::kSync) and
// the event-driven engine (fl::AsyncTrainer, kAsync) share their client
// execution, TDMA grant rule, resume, checkpoint, trace, evaluation and
// metrics steps (fl/round_steps.h, mec/tdma.h).  A differential test between two engines that share
// code compares that code with itself, so this test pins each engine to
// constants instead: FNV-1a 64 of the final weights, the history CSV bytes
// and the raw JSONL trace, over strategy x faults x threads.
//
// The constants are a per-kernel contract (docs/KERNELS.md): ctest runs
// this binary with HELCFL_KERNEL_ISA=generic so that FMA contraction in a
// wider kernel cannot move a bit.  A mismatch means engine behaviour moved;
// the failure message prints the digest the code now produces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "fl/async_trainer.h"
#include "resume_fixtures.h"
#include "tensor/ops.h"
#include "util/serial.h"

namespace helcfl::testing {
namespace {

struct Golden {
  const char* engine;  ///< "sync" = FederatedTrainer, "async" = AsyncTrainer kAsync
  const char* strategy;
  bool faults;
  std::size_t threads;
  std::uint64_t weights;
  std::uint64_t csv;
  std::uint64_t trace;
};

// Recorded from the engines before they shared any code.
constexpr Golden kGolden[] = {
    {"sync", "HELCFL", false, 1,
     0x5C1B1C44EF6CF933ULL, 0x4BFAB5FACF61B7D4ULL, 0x9E64292B8ABAF0D9ULL},
    {"sync", "HELCFL", false, 4,
     0x5C1B1C44EF6CF933ULL, 0x4BFAB5FACF61B7D4ULL, 0x741FC03E2227BCE4ULL},
    {"sync", "HELCFL", true, 1,
     0xB0BBF5DDE7F6A1B6ULL, 0x039E6FEAB30A3C5CULL, 0x0E1F8F20D3C8EDF7ULL},
    {"sync", "HELCFL", true, 4,
     0xB0BBF5DDE7F6A1B6ULL, 0x039E6FEAB30A3C5CULL, 0x1577033F2F4161A0ULL},
    {"sync", "ClassicFL", false, 1,
     0x8C90AEC18D2AC6F8ULL, 0x2474068732669687ULL, 0xB2979CFC580DC275ULL},
    {"sync", "ClassicFL", false, 4,
     0x8C90AEC18D2AC6F8ULL, 0x2474068732669687ULL, 0xB8BCCEC431BA49B6ULL},
    {"sync", "ClassicFL", true, 1,
     0xC53AC78CC49CE7EEULL, 0xCCD88848DD404C20ULL, 0x28307A54F777CEF7ULL},
    {"sync", "ClassicFL", true, 4,
     0xC53AC78CC49CE7EEULL, 0xCCD88848DD404C20ULL, 0x607C665D8836766CULL},
    {"sync", "Oort", false, 1,
     0xB16A141B9C92E3AFULL, 0x7E7DEF0A1E932AC9ULL, 0x9DCE8451F05209EBULL},
    {"sync", "Oort", false, 4,
     0xB16A141B9C92E3AFULL, 0x7E7DEF0A1E932AC9ULL, 0x76E59A93C704FA40ULL},
    {"sync", "Oort", true, 1,
     0x10A596DC60FE2A28ULL, 0xB064CC66031C5443ULL, 0x50F16E40882DAFDDULL},
    {"sync", "Oort", true, 4,
     0x10A596DC60FE2A28ULL, 0xB064CC66031C5443ULL, 0xF9BD1965C6F53E14ULL},
    {"async", "HELCFL", false, 1,
     0x89285452B932F6C5ULL, 0x5BB7C8EA47220DD2ULL, 0x1C1CBF3AEBAE90D2ULL},
    {"async", "HELCFL", false, 4,
     0x89285452B932F6C5ULL, 0x5BB7C8EA47220DD2ULL, 0xAEEC41AF715246AFULL},
    {"async", "HELCFL", true, 1,
     0xB0010293A20ED96EULL, 0x2EA36A6E87A8347BULL, 0xC3686E44E3459F80ULL},
    {"async", "HELCFL", true, 4,
     0xB0010293A20ED96EULL, 0x2EA36A6E87A8347BULL, 0x933ECA0951D023CBULL},
    {"async", "ClassicFL", false, 1,
     0x4487F271C040A391ULL, 0x6AC562F21AB41781ULL, 0xE3F4D506A52F232CULL},
    {"async", "ClassicFL", false, 4,
     0x4487F271C040A391ULL, 0x6AC562F21AB41781ULL, 0x946CDA16C21B6607ULL},
    {"async", "ClassicFL", true, 1,
     0x3C6195F1A3B32C5DULL, 0xE39CB87A01699E55ULL, 0xE033BB5A1FDE88C1ULL},
    {"async", "ClassicFL", true, 4,
     0x3C6195F1A3B32C5DULL, 0xE39CB87A01699E55ULL, 0x007F779F237E5E40ULL},
    {"async", "Oort", false, 1,
     0x7675D09693184409ULL, 0xB219BDC93E53E61AULL, 0x8D8F0D3FD3A91D13ULL},
    {"async", "Oort", false, 4,
     0x7675D09693184409ULL, 0xB219BDC93E53E61AULL, 0xF952A3CE45CCD65EULL},
    {"async", "Oort", true, 1,
     0x1E221139A335CDABULL, 0x0FA102B1B5FE37F5ULL, 0x33247A8041AF6F07ULL},
    {"async", "Oort", true, 4,
     0x1E221139A335CDABULL, 0x0FA102B1B5FE37F5ULL, 0x882CCF885F7B2DB0ULL},
};

std::uint64_t digest_string(const std::string& text) {
  return util::fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::uint64_t digest_floats(const std::vector<float>& values) {
  return util::fnv1a64({reinterpret_cast<const std::uint8_t*>(values.data()),
                        values.size() * sizeof(float)});
}

std::string hex(std::uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%016llXULL",
                static_cast<unsigned long long>(value));
  return text;
}

fl::AsyncOptions fedbuff_engine() {
  fl::AsyncOptions async;
  async.mode = fl::AsyncOptions::Mode::kAsync;
  async.buffer_k = 3;
  async.staleness_beta = 0.5;
  async.staleness_bound = 4;
  return async;
}

TEST(EngineGolden, BothEnginesMatchTheirRecordedDigests) {
  ASSERT_EQ(tensor::kernel_isa(), "generic")
      << "the digests hold for the portable kernel only; run this test with "
         "HELCFL_KERNEL_ISA=generic (ctest sets it)";
  static const ResumeWorld world;
  const std::filesystem::path dir =
      resume_tmp_dir("engine_golden_" + std::to_string(::getpid()));
  std::size_t checked = 0;
  for (const char* engine : {"sync", "async"}) {
    for (const char* strategy : {"HELCFL", "ClassicFL", "Oort"}) {
      for (const bool faults : {false, true}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const std::string label = std::string(engine) + "/" + strategy +
                                    (faults ? "/faults" : "/clean") +
                                    "/threads=" + std::to_string(threads);
          SCOPED_TRACE(label);
          const fl::TrainerOptions options = resume_options(faults, threads);
          const ResumeRun run =
              std::string(engine) == "sync"
                  ? run_resume_case(world, strategy, options)
                  : run_async_case(world, strategy, options, fedbuff_engine());
          ASSERT_FALSE(run.history.rounds().empty());
          const std::uint64_t weights = digest_floats(run.final_weights);
          const std::uint64_t csv =
              digest_string(history_csv_bytes(dir, "run", run.history));
          const std::uint64_t trace = digest_string(run.trace);

          const Golden* expected = nullptr;
          for (const Golden& golden : kGolden) {
            if (std::string(golden.engine) == engine &&
                std::string(golden.strategy) == strategy &&
                golden.faults == faults && golden.threads == threads) {
              expected = &golden;
            }
          }
          const std::string actual = std::string("{\"") + engine + "\", \"" +
                                     strategy + "\", " +
                                     (faults ? "true" : "false") + ", " +
                                     std::to_string(threads) + ", " + hex(weights) +
                                     ", " + hex(csv) + ", " + hex(trace) + "},";
          if (expected == nullptr) {
            ADD_FAILURE() << "no golden row; produced " << actual;
            continue;
          }
          EXPECT_EQ(expected->weights, weights) << "produced " << actual;
          EXPECT_EQ(expected->csv, csv) << "produced " << actual;
          EXPECT_EQ(expected->trace, trace) << "produced " << actual;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace helcfl::testing
