#include "mec/battery.h"

#include <gtest/gtest.h>

namespace helcfl::mec {
namespace {

TEST(Battery, StartsFull) {
  const Battery b(10.0);
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining_j(), 10.0);
  EXPECT_DOUBLE_EQ(b.capacity_j(), 10.0);
}

TEST(Battery, DrainReducesCharge) {
  Battery b(10.0);
  EXPECT_DOUBLE_EQ(b.drain(3.0), 3.0);
  EXPECT_DOUBLE_EQ(b.remaining_j(), 7.0);
  EXPECT_DOUBLE_EQ(b.capacity_j(), 10.0);
  EXPECT_FALSE(b.depleted());
}

TEST(Battery, OverdrawIsClamped) {
  Battery b(5.0);
  EXPECT_DOUBLE_EQ(b.drain(8.0), 5.0);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining_j(), 0.0);
  EXPECT_DOUBLE_EQ(b.drain(1.0), 0.0);
}

TEST(Battery, ExactDepletion) {
  Battery b(5.0);
  b.drain(5.0);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, MainsPowerNeverDepletes) {
  Battery b(0.0);
  EXPECT_TRUE(b.is_mains_powered());
  EXPECT_DOUBLE_EQ(b.drain(1e9), 1e9);
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining_j(), 0.0);  // mains power reports no charge
}

TEST(Battery, NegativeDrainThrows) {
  Battery b(5.0);
  EXPECT_THROW(b.drain(-1.0), std::invalid_argument);
}

TEST(BatteryFleet, UniformConstruction) {
  const BatteryFleet fleet(10, 3.0);
  EXPECT_EQ(fleet.size(), 10u);
  EXPECT_EQ(fleet.alive_count(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(fleet.is_alive(i));
    EXPECT_DOUBLE_EQ(fleet.battery(i).capacity_j(), 3.0);
  }
}

TEST(BatteryFleet, DrainUpdatesAliveMask) {
  BatteryFleet fleet(3, 2.0);
  fleet.drain(1, 2.0);
  EXPECT_FALSE(fleet.is_alive(1));
  EXPECT_TRUE(fleet.is_alive(0));
  EXPECT_EQ(fleet.alive_count(), 2u);
  const auto mask = fleet.alive_mask();
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(mask[2], 1);
}

TEST(BatteryFleet, PartialDrainKeepsAlive) {
  BatteryFleet fleet(2, 2.0);
  fleet.drain(0, 1.9);
  EXPECT_TRUE(fleet.is_alive(0));
  EXPECT_EQ(fleet.alive_count(), 2u);
}

TEST(BatteryFleet, DrainTouchesOnlyItsDevice) {
  BatteryFleet fleet(2, 4.0);
  EXPECT_DOUBLE_EQ(fleet.drain(0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(fleet.battery(0).remaining_j(), 2.0);
  EXPECT_DOUBLE_EQ(fleet.battery(1).remaining_j(), 4.0);
}

TEST(BatteryFleet, EmptyFleet) {
  const BatteryFleet fleet;
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_EQ(fleet.alive_count(), 0u);
  EXPECT_TRUE(fleet.alive_mask().empty());
}

}  // namespace
}  // namespace helcfl::mec
