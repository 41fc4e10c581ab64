#include "mec/cost_model.h"

#include <gtest/gtest.h>

namespace helcfl::mec {
namespace {

Device paper_device() {
  Device d;
  d.f_min_hz = 0.3e9;
  d.f_max_hz = 2.0e9;
  d.switched_capacitance = 2e-28;
  d.cycles_per_sample = 1e7;
  d.num_samples = 40;
  d.tx_power_w = 0.2;
  d.channel_gain_sq = 1e-7;
  return d;
}

const Channel kChannel{2e6, 1e-9};
constexpr double kModelBits = 4e6;

TEST(CostModel, ComputeDelayEq4) {
  const Device d = paper_device();
  // T = pi*|D| / f = 4e8 / 1e9 = 0.4 s.
  EXPECT_DOUBLE_EQ(compute_delay_s(d, 1e9), 0.4);
}

TEST(CostModel, ComputeDelayInverseInFrequency) {
  const Device d = paper_device();
  EXPECT_DOUBLE_EQ(compute_delay_s(d, 0.5e9), 2.0 * compute_delay_s(d, 1e9));
}

TEST(CostModel, ComputeDelayRejectsNonPositiveFrequency) {
  const Device d = paper_device();
  EXPECT_THROW(compute_delay_s(d, 0.0), std::invalid_argument);
  EXPECT_THROW(compute_delay_s(d, -1e9), std::invalid_argument);
}

TEST(CostModel, ComputeEnergyEq5) {
  const Device d = paper_device();
  // E = alpha/2 * pi*|D| * f^2 = 1e-28 * 4e8 * 1e18 = 0.04 J.
  EXPECT_DOUBLE_EQ(compute_energy_j(d, 1e9), 1e-28 * 4e8 * 1e18);
}

TEST(CostModel, ComputeEnergyQuadraticInFrequency) {
  const Device d = paper_device();
  EXPECT_DOUBLE_EQ(compute_energy_j(d, 2e9), 4.0 * compute_energy_j(d, 1e9));
}

TEST(CostModel, SlowingDownSavesEnergyButCostsDelay) {
  const Device d = paper_device();
  EXPECT_LT(compute_energy_j(d, d.f_min_hz), compute_energy_j(d, d.f_max_hz));
  EXPECT_GT(compute_delay_s(d, d.f_min_hz), compute_delay_s(d, d.f_max_hz));
}

TEST(CostModel, UploadDelayEq7) {
  const Device d = paper_device();
  const double rate = kChannel.upload_rate_bps(d);
  EXPECT_DOUBLE_EQ(upload_delay_s(d, kChannel, kModelBits), kModelBits / rate);
}

TEST(CostModel, UploadEnergyEq8) {
  const Device d = paper_device();
  EXPECT_DOUBLE_EQ(upload_energy_j(d, kChannel, kModelBits),
                   d.tx_power_w * upload_delay_s(d, kChannel, kModelBits));
}

TEST(CostModel, UploadDelayLinearInModelSize) {
  const Device d = paper_device();
  EXPECT_DOUBLE_EQ(upload_delay_s(d, kChannel, 2.0 * kModelBits),
                   2.0 * upload_delay_s(d, kChannel, kModelBits));
}

TEST(CostModel, PaperScaleSanity) {
  // With the paper's constants a 40-sample device at 1 GHz spends well
  // under a second computing and a fraction of a joule per round.
  const Device d = paper_device();
  // Eq. (9): the round's delay and energy are compute plus upload.
  const double delay =
      compute_delay_s(d, 1e9) + upload_delay_s(d, kChannel, kModelBits);
  const double energy =
      compute_energy_j(d, 1e9) + upload_energy_j(d, kChannel, kModelBits);
  EXPECT_GT(delay, 0.01);
  EXPECT_LT(delay, 10.0);
  EXPECT_GT(energy, 0.001);
  EXPECT_LT(energy, 10.0);
}

}  // namespace
}  // namespace helcfl::mec
