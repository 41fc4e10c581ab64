#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace helcfl::sim {
namespace {

std::vector<std::size_t> even_samples(std::size_t n, std::size_t each) {
  return std::vector<std::size_t>(n, each);
}

TEST(Fleet, ProducesRequestedCount) {
  ExperimentConfig c = paper_config();
  util::Rng rng(1);
  const auto fleet = make_fleet(c, even_samples(100, 40), rng);
  EXPECT_EQ(fleet.size(), 100u);
}

TEST(Fleet, DevicesAreValidAndInRange) {
  ExperimentConfig c = paper_config();
  util::Rng rng(2);
  const auto fleet = make_fleet(c, even_samples(100, 40), rng);
  for (const auto& d : fleet) {
    EXPECT_TRUE(d.is_valid());
    EXPECT_GE(d.f_max_hz, c.f_max_low_hz);
    EXPECT_LE(d.f_max_hz, c.f_max_high_hz);
    EXPECT_DOUBLE_EQ(d.f_min_hz, c.f_min_hz);
    EXPECT_GE(d.channel_gain_sq, c.gain_sq_low * 0.999);
    EXPECT_LE(d.channel_gain_sq, c.gain_sq_high * 1.001);
    EXPECT_DOUBLE_EQ(d.tx_power_w, c.tx_power_w);
    EXPECT_EQ(d.num_samples, 40u);
  }
}

TEST(Fleet, IdsAreSequential) {
  ExperimentConfig c = paper_config();
  c.n_users = 10;
  util::Rng rng(3);
  const auto fleet = make_fleet(c, even_samples(10, 5), rng);
  for (std::size_t i = 0; i < fleet.size(); ++i) EXPECT_EQ(fleet[i].id, i);
}

TEST(Fleet, SampleCountsComeFromPartition) {
  ExperimentConfig c = paper_config();
  c.n_users = 3;
  util::Rng rng(4);
  const std::vector<std::size_t> samples = {10, 20, 30};
  const auto fleet = make_fleet(c, samples, rng);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(fleet[i].num_samples, samples[i]);
}

TEST(Fleet, RejectsSampleVectorMismatch) {
  ExperimentConfig c = paper_config();
  util::Rng rng(5);
  EXPECT_THROW(make_fleet(c, even_samples(99, 40), rng), std::invalid_argument);
}

TEST(Fleet, FrequenciesAreHeterogeneous) {
  ExperimentConfig c = paper_config();
  util::Rng rng(6);
  const auto fleet = make_fleet(c, even_samples(100, 40), rng);
  std::vector<double> fmax;
  for (const auto& d : fleet) fmax.push_back(d.f_max_hz);
  // Spread should span most of the (0.3, 2.0) GHz interval.
  EXPECT_LT(*std::min_element(fmax.begin(), fmax.end()), 0.5e9);
  EXPECT_GT(*std::max_element(fmax.begin(), fmax.end()), 1.8e9);
  EXPECT_NEAR(std::accumulate(fmax.begin(), fmax.end(), 0.0) / static_cast<double>(fmax.size()),
              (0.3e9 + 2.0e9) / 2.0, 0.1e9);
}

TEST(Fleet, DeterministicGivenRngState) {
  ExperimentConfig c = paper_config();
  c.n_users = 50;
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  const auto a = make_fleet(c, even_samples(50, 40), rng_a);
  const auto b = make_fleet(c, even_samples(50, 40), rng_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].f_max_hz, b[i].f_max_hz);
    EXPECT_DOUBLE_EQ(a[i].channel_gain_sq, b[i].channel_gain_sq);
  }
}

TEST(Fleet, ChannelMatchesConfig) {
  ExperimentConfig c = paper_config();
  const mec::Channel channel = make_channel(c);
  EXPECT_DOUBLE_EQ(channel.bandwidth_hz, c.bandwidth_hz);
  EXPECT_DOUBLE_EQ(channel.noise_w, c.noise_w);
}

TEST(Fleet, GainsSpanTheLogRange) {
  ExperimentConfig c = paper_config();
  c.n_users = 200;
  util::Rng rng(8);
  const auto fleet = make_fleet(c, even_samples(200, 40), rng);
  std::size_t low_half = 0;
  const double mid = std::sqrt(c.gain_sq_low * c.gain_sq_high);  // log-midpoint
  for (const auto& d : fleet) {
    if (d.channel_gain_sq < mid) ++low_half;
  }
  // Log-uniform: about half the devices below the log midpoint.
  EXPECT_NEAR(static_cast<double>(low_half) / 200.0, 0.5, 0.12);
}

}  // namespace
}  // namespace helcfl::sim
