#include "sim/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace helcfl::sim {
namespace {

fl::TrainingHistory sample_history() {
  fl::TrainingHistory h;
  for (std::size_t round = 0; round < 4; ++round) {
    fl::RoundRecord r;
    r.round = round;
    r.cum_delay_s = 10.0 * static_cast<double>(round + 1);
    r.cum_energy_j = 5.0 * static_cast<double>(round + 1);
    r.train_loss = 2.0 - 0.3 * static_cast<double>(round);
    r.evaluated = round % 2 == 0;
    r.test_loss = 1.5 - 0.2 * static_cast<double>(round);
    r.test_accuracy = 0.2 * static_cast<double>(round + 1);
    h.add(r);
  }
  return h;
}

TEST(Report, FormatMinutes) {
  EXPECT_EQ(format_minutes(409.2), "6.82min");
  EXPECT_EQ(format_minutes(60.0), "1.00min");
  EXPECT_EQ(format_minutes(0.0), "0.00min");
}

TEST(Report, FormatMinutesOrX) {
  EXPECT_EQ(format_minutes_or_x(std::nullopt), "X");
  EXPECT_EQ(format_minutes_or_x(120.0), "2.00min");
}

TEST(Report, FormatJoules) {
  EXPECT_EQ(format_joules(123.456), "123.46J");
  EXPECT_EQ(format_joules(1.0), "1.00J");
}

TEST(Report, FormatPercent) {
  EXPECT_EQ(format_percent(0.8731), "87.31%");
  EXPECT_EQ(format_percent(1.0), "100.00%");
}

TEST(Report, AccuracyAtRoundUsesLastEvaluation) {
  const fl::TrainingHistory h = sample_history();
  // Rounds 0 and 2 evaluated with accuracies 0.2 and 0.6.
  EXPECT_DOUBLE_EQ(accuracy_at_round(h, 0), 0.2);
  EXPECT_DOUBLE_EQ(accuracy_at_round(h, 1), 0.2);  // carries forward
  EXPECT_DOUBLE_EQ(accuracy_at_round(h, 2), 0.6);
  EXPECT_DOUBLE_EQ(accuracy_at_round(h, 3), 0.6);
  EXPECT_DOUBLE_EQ(accuracy_at_round(h, 100), 0.6);
}

TEST(Report, AccuracyAtRoundNanWhenNothingEvaluated) {
  fl::TrainingHistory h;
  fl::RoundRecord r;
  r.round = 0;
  h.add(r);
  EXPECT_TRUE(std::isnan(accuracy_at_round(h, 0)));
}

TEST(Report, WriteHistoryCsvRoundTrips) {
  const std::string path = ::testing::TempDir() + "/helcfl_report_test.csv";
  write_history_csv(path, sample_history());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "round,cum_delay_s,cum_energy_j,train_loss,survivors,crashed,"
            "upload_failures,dropped_late,retries,quorum_failed,wasted_energy_j,"
            "test_loss,test_accuracy");
  std::size_t rows = 0;
  std::size_t rows_with_eval = 0;
  while (std::getline(in, line)) {
    ++rows;
    // Unevaluated rounds leave the test columns empty (trailing ",,").
    if (line.back() != ',') ++rows_with_eval;
  }
  EXPECT_EQ(rows, 4u);
  EXPECT_EQ(rows_with_eval, 2u);
  std::remove(path.c_str());
}

TEST(Report, PrintAccuracyCurvesDoesNotCrash) {
  const std::string labels[] = {"A", "B"};
  const fl::TrainingHistory histories[] = {sample_history(), sample_history()};
  print_accuracy_curves(labels, histories, 4);
  // Mismatched sizes are a silent no-op.
  print_accuracy_curves(std::span<const std::string>(labels, 1), histories, 4);
}

}  // namespace
}  // namespace helcfl::sim
