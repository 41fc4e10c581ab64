#include "mec/tdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace helcfl::mec {
namespace {

TEST(Tdma, EmptyInput) {
  const TdmaSchedule s = schedule_uploads({}, {});
  EXPECT_TRUE(s.slots.empty());
  EXPECT_DOUBLE_EQ(s.round_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(s.total_slack_s, 0.0);
}

TEST(Tdma, SingleUserHasNoSlack) {
  const std::vector<double> compute = {2.0};
  const std::vector<double> upload = {1.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  ASSERT_EQ(s.slots.size(), 1u);
  EXPECT_DOUBLE_EQ(s.slots[0].upload_start, 2.0);
  EXPECT_DOUBLE_EQ(s.slots[0].upload_end, 3.0);
  EXPECT_DOUBLE_EQ(s.slots[0].slack_s, 0.0);
  EXPECT_DOUBLE_EQ(s.round_delay_s, 3.0);
}

TEST(Tdma, SecondUserWaitsForLink) {
  // Fig. 1: user 2 finishes computing during user 1's upload and must wait.
  const std::vector<double> compute = {1.0, 1.5};
  const std::vector<double> upload = {2.0, 1.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  ASSERT_EQ(s.slots.size(), 2u);
  EXPECT_EQ(s.slots[0].index, 0u);
  EXPECT_DOUBLE_EQ(s.slots[0].upload_start, 1.0);
  EXPECT_DOUBLE_EQ(s.slots[0].upload_end, 3.0);
  EXPECT_EQ(s.slots[1].index, 1u);
  EXPECT_DOUBLE_EQ(s.slots[1].upload_start, 3.0);   // waits for the link
  EXPECT_DOUBLE_EQ(s.slots[1].slack_s, 1.5);        // 3.0 - 1.5
  EXPECT_DOUBLE_EQ(s.round_delay_s, 4.0);
  EXPECT_DOUBLE_EQ(s.total_slack_s, 1.5);
}

TEST(Tdma, NoWaitWhenComputeDominates) {
  const std::vector<double> compute = {1.0, 10.0};
  const std::vector<double> upload = {2.0, 1.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  EXPECT_DOUBLE_EQ(s.slots[1].upload_start, 10.0);  // link already free
  EXPECT_DOUBLE_EQ(s.slots[1].slack_s, 0.0);
  EXPECT_DOUBLE_EQ(s.round_delay_s, 11.0);
}

TEST(Tdma, GrantOrderFollowsComputeCompletion) {
  const std::vector<double> compute = {3.0, 1.0, 2.0};
  const std::vector<double> upload = {0.5, 0.5, 0.5};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  EXPECT_EQ(s.slots[0].index, 1u);
  EXPECT_EQ(s.slots[1].index, 2u);
  EXPECT_EQ(s.slots[2].index, 0u);
}

TEST(Tdma, TiesBrokenByIndex) {
  const std::vector<double> compute = {1.0, 1.0, 1.0};
  const std::vector<double> upload = {0.5, 0.5, 0.5};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  EXPECT_EQ(s.slots[0].index, 0u);
  EXPECT_EQ(s.slots[1].index, 1u);
  EXPECT_EQ(s.slots[2].index, 2u);
}

TEST(Tdma, UploadsNeverOverlap) {
  const std::vector<double> compute = {0.1, 0.2, 0.3, 0.4, 0.5};
  const std::vector<double> upload = {1.0, 1.0, 1.0, 1.0, 1.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  for (std::size_t i = 1; i < s.slots.size(); ++i) {
    EXPECT_GE(s.slots[i].upload_start, s.slots[i - 1].upload_end - 1e-12);
  }
}

TEST(Tdma, RoundDelayIsLastUploadEnd) {
  const std::vector<double> compute = {0.1, 0.2, 0.3};
  const std::vector<double> upload = {1.0, 1.0, 1.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  EXPECT_DOUBLE_EQ(s.round_delay_s, s.slots.back().upload_end);
  EXPECT_DOUBLE_EQ(s.round_delay_s, 0.1 + 3.0);  // back-to-back uploads
}

TEST(Tdma, ZeroUploadDuration) {
  const std::vector<double> compute = {1.0, 2.0};
  const std::vector<double> upload = {0.0, 0.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  EXPECT_DOUBLE_EQ(s.round_delay_s, 2.0);
  EXPECT_DOUBLE_EQ(s.total_slack_s, 0.0);
}

TEST(Tdma, RejectsMismatchedSpans) {
  const std::vector<double> compute = {1.0};
  const std::vector<double> upload = {1.0, 2.0};
  EXPECT_THROW(schedule_uploads(compute, upload), std::invalid_argument);
}

TEST(Tdma, RejectsNegativeDelays) {
  const std::vector<double> compute = {-1.0};
  const std::vector<double> upload = {1.0};
  EXPECT_THROW(schedule_uploads(compute, upload), std::invalid_argument);
  const std::vector<double> compute2 = {1.0};
  const std::vector<double> upload2 = {-1.0};
  EXPECT_THROW(schedule_uploads(compute2, upload2), std::invalid_argument);
}

TEST(Tdma, TotalSlackSumsPerUserSlack) {
  const std::vector<double> compute = {1.0, 1.1, 1.2};
  const std::vector<double> upload = {2.0, 2.0, 2.0};
  const TdmaSchedule s = schedule_uploads(compute, upload);
  double expected = 0.0;
  for (const auto& slot : s.slots) expected += slot.slack_s;
  EXPECT_DOUBLE_EQ(s.total_slack_s, expected);
  EXPECT_GT(s.total_slack_s, 0.0);
}

TEST(Tdma, UplinkGrantReproducesScheduleSlotForSlot) {
  // The async engine grants one compute completion at a time, in completion
  // order; replaying a cohort that way must give schedule_uploads' slots
  // bit for bit.  Quantized delays force ties and back-to-back waits.
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> compute(n);
    std::vector<double> upload(n);
    for (std::size_t i = 0; i < n; ++i) {
      compute[i] = 0.25 * static_cast<double>(rng.uniform_int(0, 15));
      upload[i] = rng.uniform(0.1, 3.0);
    }
    const TdmaSchedule schedule = schedule_uploads(compute, upload);

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return compute[a] < compute[b]; });
    Uplink uplink;
    ASSERT_EQ(schedule.slots.size(), n);
    for (std::size_t g = 0; g < n; ++g) {
      const UploadSlot slot = uplink.grant(order[g], compute[order[g]], upload[order[g]]);
      const UploadSlot& expected = schedule.slots[g];
      EXPECT_EQ(slot.index, expected.index);
      EXPECT_EQ(slot.compute_end, expected.compute_end);
      EXPECT_EQ(slot.upload_start, expected.upload_start);
      EXPECT_EQ(slot.upload_end, expected.upload_end);
      EXPECT_EQ(slot.slack_s, expected.slack_s);
    }
    EXPECT_EQ(uplink.free_at, schedule.round_delay_s);
  }
}

}  // namespace
}  // namespace helcfl::mec
