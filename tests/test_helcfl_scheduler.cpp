#include "core/helcfl_scheduler.h"

#include <gtest/gtest.h>

#include <set>

#include "core/dvfs.h"
#include "fl_fixtures.h"

namespace helcfl::core {
namespace {

std::vector<sched::UserInfo> fleet_of(std::size_t n) {
  const auto devices = testing::linear_fleet(n, 20);
  return sched::build_user_info(devices, testing::paper_channel(), 4e6);
}

TEST(HelcflScheduler, SelectsFractionAndAlignedFrequencies) {
  HelcflScheduler scheduler({.fraction = 0.2, .eta = 0.9});
  const auto users = fleet_of(20);
  const sched::Decision d = scheduler.decide({users}, 0);
  EXPECT_EQ(d.selected.size(), 4u);
  EXPECT_EQ(d.frequencies_hz.size(), 4u);
}

TEST(HelcflScheduler, FrequenciesMatchAlgorithm3) {
  HelcflScheduler scheduler({.fraction = 0.3, .eta = 0.9});
  const auto users = fleet_of(10);
  const sched::Decision d = scheduler.decide({users}, 0);
  const FrequencyPlan plan = determine_frequencies({users}, d.selected);
  for (std::size_t k = 0; k < d.selected.size(); ++k) {
    EXPECT_DOUBLE_EQ(d.frequencies_hz[k], plan.frequency_of(d.selected[k]));
  }
}

TEST(HelcflScheduler, NoDvfsRunsEveryoneAtMax) {
  HelcflScheduler scheduler({.fraction = 0.3, .eta = 0.9, .enable_dvfs = false});
  const auto users = fleet_of(10);
  const sched::Decision d = scheduler.decide({users}, 0);
  for (std::size_t k = 0; k < d.selected.size(); ++k) {
    EXPECT_DOUBLE_EQ(d.frequencies_hz[k], users[d.selected[k]].device.f_max_hz);
  }
}

TEST(HelcflScheduler, DvfsAndNoDvfsSelectSameUsers) {
  HelcflScheduler with({.fraction = 0.2, .eta = 0.9, .enable_dvfs = true});
  HelcflScheduler without({.fraction = 0.2, .eta = 0.9, .enable_dvfs = false});
  const auto users = fleet_of(15);
  for (std::size_t round = 0; round < 20; ++round) {
    EXPECT_EQ(with.decide({users}, round).selected,
              without.decide({users}, round).selected);
  }
}

TEST(HelcflScheduler, RotationCoversTheWholeFleet) {
  HelcflScheduler scheduler({.fraction = 0.1, .eta = 0.8});
  const auto users = fleet_of(30);
  std::set<std::size_t> ever;
  for (std::size_t round = 0; round < 120; ++round) {
    for (const auto i : scheduler.decide({users}, round).selected) ever.insert(i);
  }
  EXPECT_EQ(ever.size(), 30u);
}

TEST(HelcflScheduler, ResetRestartsTheDecaySequence) {
  HelcflScheduler scheduler({.fraction = 0.2, .eta = 0.9});
  const auto users = fleet_of(10);
  const auto first = scheduler.decide({users}, 0).selected;
  (void)scheduler.decide({users}, 1);
  scheduler.reset();
  EXPECT_EQ(scheduler.decide({users}, 0).selected, first);
}

TEST(HelcflScheduler, NameReflectsDvfsFlag) {
  EXPECT_EQ(HelcflScheduler({.enable_dvfs = true}).name(), "HELCFL");
  EXPECT_EQ(HelcflScheduler({.enable_dvfs = false}).name(), "HELCFL-noDVFS");
}

TEST(HelcflScheduler, FirstRoundPrefersFastUsers) {
  HelcflScheduler scheduler({.fraction = 0.2, .eta = 0.9});
  const auto users = fleet_of(20);  // ascending f_max with index
  const sched::Decision d = scheduler.decide({users}, 0);
  // The fastest devices are the highest indices in linear_fleet.
  for (const auto i : d.selected) EXPECT_GE(i, 14u);
}

}  // namespace
}  // namespace helcfl::core
