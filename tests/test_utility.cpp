#include "core/utility.h"

#include <gtest/gtest.h>

#include <cmath>

namespace helcfl::core {
namespace {

TEST(Utility, Eq20Formula) {
  // u = eta^alpha / (t_cal + t_com).
  EXPECT_DOUBLE_EQ(utility(0, 1.0, 1.0, 0.9), 0.5);
  EXPECT_DOUBLE_EQ(utility(1, 1.0, 1.0, 0.9), 0.45);
  EXPECT_DOUBLE_EQ(utility(2, 2.0, 2.0, 0.5), 0.25 / 4.0);
}

TEST(Utility, ZeroAppearancesIsInverseDelay) {
  EXPECT_DOUBLE_EQ(utility(0, 0.7, 1.3, 0.5), 1.0 / 2.0);
}

TEST(Utility, DecreasesWithAppearances) {
  double prev = utility(0, 1.0, 0.5, 0.9);
  for (std::size_t a = 1; a < 20; ++a) {
    const double u = utility(a, 1.0, 0.5, 0.9);
    EXPECT_LT(u, prev);
    prev = u;
  }
}

TEST(Utility, DecreasesWithDelay) {
  EXPECT_GT(utility(0, 0.5, 0.5, 0.9), utility(0, 1.0, 0.5, 0.9));
  EXPECT_GT(utility(0, 0.5, 0.5, 0.9), utility(0, 0.5, 1.0, 0.9));
}

TEST(Utility, GeometricDecayRatio) {
  const double eta = 0.8;
  for (std::size_t a = 0; a < 10; ++a) {
    EXPECT_NEAR(utility(a + 1, 1.0, 1.0, eta) / utility(a, 1.0, 1.0, eta), eta,
                1e-12);
  }
}

TEST(Utility, RejectsBadEta) {
  EXPECT_THROW(utility(0, 1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(utility(0, 1.0, 1.0, -0.5), std::invalid_argument);
  EXPECT_THROW(utility(0, 1.0, 1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(utility(0, 1.0, 1.0, std::nextafter(1.0, 2.0)),
               std::invalid_argument);
}

TEST(Utility, EtaOneDisablesDecay) {
  // The tie-heavy degenerate regime: u_q = 1/delay for every alpha_q.
  for (std::size_t a = 0; a < 100; a += 7) {
    EXPECT_EQ(utility(a, 1.5, 0.5, 1.0), 0.5);
  }
}

TEST(Utility, RejectsNonPositiveDelay) {
  EXPECT_THROW(utility(0, 0.0, 0.0, 0.9), std::invalid_argument);
  EXPECT_THROW(utility(0, -1.0, 0.5, 0.9), std::invalid_argument);
}

class UtilityEtaSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilityEtaSweep, AlwaysPositiveAndDecaying) {
  const double eta = GetParam();
  double prev = utility(0, 0.8, 0.4, eta);
  EXPECT_GT(prev, 0.0);
  for (std::size_t a = 1; a <= 50; ++a) {
    const double u = utility(a, 0.8, 0.4, eta);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, prev);
    prev = u;
  }
}

INSTANTIATE_TEST_SUITE_P(EtaRange, UtilityEtaSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 0.99));

}  // namespace
}  // namespace helcfl::core
