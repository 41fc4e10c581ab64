#include "mec/fading.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace helcfl::mec {
namespace {

TEST(Fading, DisabledIsUnity) {
  FadingProcess fading(5, {.enabled = false}, util::Rng(1));
  for (int round = 0; round < 10; ++round) {
    fading.step();
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(fading.multiplier(i), 1.0);
    }
  }
}

TEST(Fading, EnabledMultipliersArePositive) {
  FadingProcess fading(20, {.enabled = true, .rho = 0.9, .sigma_db = 4.0},
                       util::Rng(2));
  for (int round = 0; round < 50; ++round) {
    fading.step();
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_GT(fading.multiplier(i), 0.0);
      EXPECT_TRUE(std::isfinite(fading.multiplier(i)));
    }
  }
}

TEST(Fading, MarginalSpreadMatchesSigma) {
  // Collect the dB states over many steps; their stddev should be close to
  // sigma_db (the process is stationary by construction).
  const double sigma = 3.0;
  FadingProcess fading(1, {.enabled = true, .rho = 0.8, .sigma_db = sigma},
                       util::Rng(3));
  std::vector<double> db;
  for (int round = 0; round < 20000; ++round) {
    fading.step();
    db.push_back(10.0 * std::log10(fading.multiplier(0)));
  }
  const double n = static_cast<double>(db.size());
  const double mean = std::accumulate(db.begin(), db.end(), 0.0) / n;
  double sum_sq = 0.0;
  for (const double v : db) sum_sq += (v - mean) * (v - mean);
  EXPECT_NEAR(std::sqrt(sum_sq / n), sigma, 0.35);
  EXPECT_NEAR(mean, 0.0, 0.35);
}

TEST(Fading, HighRhoIsSmoother) {
  auto mean_abs_step = [](double rho) {
    FadingProcess fading(1, {.enabled = true, .rho = rho, .sigma_db = 4.0},
                         util::Rng(4));
    double prev = 10.0 * std::log10(fading.multiplier(0));
    double sum = 0.0;
    const int steps = 5000;
    for (int round = 0; round < steps; ++round) {
      fading.step();
      const double cur = 10.0 * std::log10(fading.multiplier(0));
      sum += std::abs(cur - prev);
      prev = cur;
    }
    return sum / steps;
  };
  EXPECT_LT(mean_abs_step(0.95), mean_abs_step(0.3));
}

TEST(Fading, DevicesAreIndependent) {
  FadingProcess fading(2, {.enabled = true, .rho = 0.5, .sigma_db = 4.0},
                       util::Rng(5));
  int identical = 0;
  for (int round = 0; round < 100; ++round) {
    fading.step();
    if (fading.multiplier(0) == fading.multiplier(1)) ++identical;
  }
  EXPECT_EQ(identical, 0);
}

TEST(Fading, DeterministicGivenSeed) {
  FadingProcess a(3, {.enabled = true, .rho = 0.9, .sigma_db = 4.0}, util::Rng(6));
  FadingProcess b(3, {.enabled = true, .rho = 0.9, .sigma_db = 4.0}, util::Rng(6));
  for (int round = 0; round < 20; ++round) {
    a.step();
    b.step();
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(a.multiplier(i), b.multiplier(i));
    }
  }
}

TEST(Fading, RejectsBadParameters) {
  EXPECT_THROW(
      FadingProcess(1, {.enabled = true, .rho = 1.0, .sigma_db = 4.0}, util::Rng(7)),
      std::invalid_argument);
  EXPECT_THROW(
      FadingProcess(1, {.enabled = true, .rho = -0.1, .sigma_db = 4.0}, util::Rng(7)),
      std::invalid_argument);
  EXPECT_THROW(
      FadingProcess(1, {.enabled = true, .rho = 0.9, .sigma_db = -1.0}, util::Rng(7)),
      std::invalid_argument);
}

TEST(Fading, ZeroSigmaIsUnity) {
  FadingProcess fading(4, {.enabled = true, .rho = 0.9, .sigma_db = 0.0},
                       util::Rng(8));
  for (int round = 0; round < 5; ++round) {
    fading.step();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(fading.multiplier(i), 1.0, 1e-12);
    }
  }
}

}  // namespace
}  // namespace helcfl::mec
