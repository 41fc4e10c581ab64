#include "core/greedy_decay_selection.h"

#include <gtest/gtest.h>

#include <set>

#include "fl_fixtures.h"

namespace helcfl::core {
namespace {

using testing::users_with_delays;

TEST(GreedyDecay, RejectsBadParameters) {
  EXPECT_THROW(GreedyDecaySelector(0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(GreedyDecaySelector(0.1, 1.5), std::invalid_argument);
  EXPECT_THROW(GreedyDecaySelector(0.0, 0.9), std::invalid_argument);
  EXPECT_THROW(GreedyDecaySelector(1.5, 0.9), std::invalid_argument);
  EXPECT_NO_THROW(GreedyDecaySelector(0.1, 1.0));  // no-decay regime
}

TEST(GreedyDecay, FirstRoundPicksFastestUsers) {
  const auto users =
      users_with_delays({{4.0, 0.5}, {1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  GreedyDecaySelector selector(0.5, 0.9);
  const auto selected = selector.select({users});
  const std::set<std::size_t> set(selected.begin(), selected.end());
  EXPECT_EQ(set, (std::set<std::size_t>{1, 2}));
}

TEST(GreedyDecay, CountersTrackSelections) {
  const auto users = users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  GreedyDecaySelector selector(0.34, 0.9);
  (void)selector.select({users});
  const auto counts = selector.appearance_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(GreedyDecay, DecayEventuallyRotatesSlowUsersIn) {
  // 1 fast + 1 slow user, select 1 per round: the slow user must appear
  // once the fast user's utility decays below it.
  const auto users = users_with_delays({{1.0, 0.0}, {4.0, 0.0}});
  GreedyDecaySelector selector(0.5, 0.9);
  std::size_t first_slow_round = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    const auto selected = selector.select({users});
    ASSERT_EQ(selected.size(), 1u);
    if (selected[0] == 1) {
      first_slow_round = round;
      break;
    }
  }
  // The smallest a with 0.9^a / 1 < 1 / 4 is a = 14.
  EXPECT_EQ(first_slow_round, 14u);
}

TEST(GreedyDecay, AllUsersEventuallySelected) {
  std::vector<std::pair<double, double>> delays;
  for (std::size_t i = 0; i < 20; ++i) {
    delays.push_back({0.5 + static_cast<double>(i), 0.5});
  }
  const auto users = users_with_delays(delays);
  GreedyDecaySelector selector(0.1, 0.7);
  std::set<std::size_t> ever_selected;
  for (std::size_t round = 0; round < 100; ++round) {
    for (const auto i : selector.select({users})) ever_selected.insert(i);
  }
  EXPECT_EQ(ever_selected.size(), 20u);
}

TEST(GreedyDecay, PureGreedyWouldStarveWithHighEta) {
  // With eta close to 1 decay is slow: within a short horizon the slow
  // user never appears (this is the FedCS-like degenerate regime that the
  // ablation bench A3 quantifies).
  const auto users = users_with_delays({{1.0, 0.0}, {50.0, 0.0}});
  GreedyDecaySelector selector(0.5, 0.99);
  for (std::size_t round = 0; round < 100; ++round) {
    const auto selected = selector.select({users});
    EXPECT_EQ(selected[0], 0u);
  }
}

TEST(GreedyDecay, SelectionCountFollowsFraction) {
  const auto users = users_with_delays(
      {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 1}, {10, 1}});
  GreedyDecaySelector selector(0.3, 0.9);
  EXPECT_EQ(selector.select({users}).size(), 3u);
}

TEST(GreedyDecay, RejectsFleetSizeChange) {
  const auto users_a = users_with_delays({{1.0, 0.5}, {2.0, 0.5}});
  const auto users_b = users_with_delays({{1.0, 0.5}});
  GreedyDecaySelector selector(0.5, 0.9);
  (void)selector.select({users_a});
  EXPECT_THROW(selector.select({users_b}), std::invalid_argument);
}

TEST(GreedyDecay, DeterministicTieBreakByIndex) {
  const auto users = users_with_delays({{1.0, 0.5}, {1.0, 0.5}, {1.0, 0.5}});
  GreedyDecaySelector selector(0.34, 0.9);
  EXPECT_EQ(selector.select({users}), (std::vector<std::size_t>{0}));
}

TEST(GreedyDecay, LongRunParticipationIsBalanced) {
  // Over many rounds the decay equalizes participation: the ratio between
  // the most- and least-selected users stays small.
  std::vector<std::pair<double, double>> delays;
  for (std::size_t i = 0; i < 10; ++i) {
    delays.push_back({0.5 + 0.4 * static_cast<double>(i), 0.5});
  }
  const auto users = users_with_delays(delays);
  GreedyDecaySelector selector(0.2, 0.8);
  for (std::size_t round = 0; round < 500; ++round) (void)selector.select({users});
  const auto counts = selector.appearance_counts();
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*min_it, 0u);
  EXPECT_LT(static_cast<double>(*max_it) / static_cast<double>(*min_it), 2.0);
}

// --- edge cases of the incremental-index selector ------------------------

TEST(GreedyDecayEdge, RevokeToZeroIsSaturating) {
  const auto users = users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  GreedyDecaySelector selector(0.34, 0.9);
  const auto first = selector.select({users});
  ASSERT_EQ(first, (std::vector<std::size_t>{0}));
  // Revoke the one appearance, then revoke again: the counter saturates at
  // zero instead of wrapping, and revoking a never-selected user is a no-op.
  selector.revoke_appearance(0);
  selector.revoke_appearance(0);
  selector.revoke_appearance(1);
  selector.revoke_appearance(99);  // out of range: ignored
  const auto counts = selector.appearance_counts();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  // With the decay undone, the next round repeats the first pick exactly.
  EXPECT_EQ(selector.select({users}), first);
}

TEST(GreedyDecayEdge, AllDepletedFleetSelectsNobody) {
  const auto users = users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  const std::vector<std::uint8_t> dead(users.size(), 0);
  GreedyDecaySelector selector(0.5, 0.9);
  EXPECT_TRUE(selector.select({users, dead}).empty());
  // The first call still pins the fleet size (counters allocated)...
  EXPECT_EQ(selector.appearance_counts().size(), users.size());
  // ... and a later all-alive round works off the same index.
  EXPECT_EQ(selector.select({users}).size(), 2u);
  // Back to all-dead mid-run: still nobody, and no counter moves.
  const std::vector<std::size_t> before(selector.appearance_counts().begin(),
                                        selector.appearance_counts().end());
  EXPECT_TRUE(selector.select({users, dead}).empty());
  EXPECT_EQ(std::vector<std::size_t>(selector.appearance_counts().begin(),
                                     selector.appearance_counts().end()),
            before);
}

TEST(GreedyDecayEdge, SelectionCappedByAliveUsers) {
  // N = max(Q*C, 1) = 4, but only 2 users are alive: the round takes 2.
  const auto users =
      users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}, {4.0, 0.5}});
  const std::vector<std::uint8_t> alive = {0, 1, 0, 1};
  GreedyDecaySelector selector(1.0, 0.9);
  EXPECT_EQ(selector.select({users, alive}), (std::vector<std::size_t>{1, 3}));
}

TEST(GreedyDecayEdge, SingleUserFleet) {
  const auto users = users_with_delays({{1.0, 0.5}});
  GreedyDecaySelector selector(0.01, 0.9);  // N = max(Q*C, 1) = 1
  for (std::size_t round = 0; round < 50; ++round) {
    EXPECT_EQ(selector.select({users}), (std::vector<std::size_t>{0}));
  }
  EXPECT_EQ(selector.appearance_counts()[0], 50u);
}

TEST(GreedyDecayEdge, EtaOneNeverRotates) {
  // eta = 1: no decay, the fastest user wins every round and ties keep
  // resolving to the lowest index.
  const auto users = users_with_delays({{1.0, 0.0}, {1.0, 0.0}, {4.0, 0.0}});
  GreedyDecaySelector selector(0.34, 1.0);
  for (std::size_t round = 0; round < 30; ++round) {
    EXPECT_EQ(selector.select({users}), (std::vector<std::size_t>{0}));
  }
  EXPECT_EQ(selector.appearance_counts()[0], 30u);
  EXPECT_EQ(selector.appearance_counts()[1], 0u);
}

TEST(GreedyDecayEdge, DelayReportUpdatesReRankNextRound) {
  // A per-round delay report (e.g. a refreshed T^com) must re-rank the
  // affected user immediately — the index refresh path.
  auto users = users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  GreedyDecaySelector selector(0.34, 0.99);
  EXPECT_EQ(selector.select({users}), (std::vector<std::size_t>{0}));
  users[2].t_cal_max_s = 0.1;  // the slowest user reports a tiny new delay
  EXPECT_EQ(selector.select({users}), (std::vector<std::size_t>{2}));
  EXPECT_GT(selector.index().delay_refreshes(), 0u);
}

TEST(GreedyDecayEdge, SelectorStateRoundTripsThroughBytes) {
  const auto users = users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}});
  GreedyDecaySelector a(0.34, 0.9);
  for (std::size_t round = 0; round < 9; ++round) (void)a.select({users});
  util::ByteWriter saved;
  a.save_state(saved);

  GreedyDecaySelector b(0.34, 0.9);
  util::ByteReader reader(saved.data());
  b.load_state(reader);
  reader.expect_end("selector state");

  // The restored selector continues identically, and its serialization is
  // deterministic (save -> load -> save is byte-identical).
  util::ByteWriter resaved;
  b.save_state(resaved);
  EXPECT_EQ(saved.data(), resaved.data());
  for (std::size_t round = 0; round < 9; ++round) {
    EXPECT_EQ(a.select({users}), b.select({users}));
  }
}

}  // namespace
}  // namespace helcfl::core
