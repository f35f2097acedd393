// The one cell driver (core/drive.hpp): early stop on the observer's word,
// the executor accounting it copies out, and the channel policy it arms.

#include "core/drive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gossip.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"

namespace anonet {
namespace {

Executor<SetGossipAgent> gossip_on_ring(int n) {
  std::vector<SetGossipAgent> agents;
  for (int v = 0; v < n; ++v) agents.emplace_back(10 + v);
  return Executor<SetGossipAgent>(
      std::make_shared<StaticSchedule>(directed_ring(n)), std::move(agents),
      CommModel::kSimpleBroadcast);
}

TEST(Drive, StopsOnTheFirstRoundObserveReturnsTrue) {
  auto executor = gossip_on_ring(6);
  Attempt attempt;
  attempt.rounds = 50;
  int calls = 0;
  const AttemptResult result =
      drive(executor, attempt, [&](const std::vector<SetGossipAgent>& agents) {
        ++calls;
        EXPECT_EQ(agents.size(), 6u);
        // On a directed ring every value reaches everyone after n - 1 rounds.
        return agents[0].known().size() == 6;
      });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(result.rounds_run, 5);
  EXPECT_EQ(executor.round(), 5);
  // Six ring edges plus six self-loops per round.
  EXPECT_EQ(result.messages_delivered, 5 * 12);
  EXPECT_EQ(result.messages_delivered, executor.stats().messages_delivered);
}

TEST(Drive, RunsTheWholeHorizonWhenObserveNeverStops) {
  auto executor = gossip_on_ring(4);
  Attempt attempt;
  attempt.rounds = 7;
  int calls = 0;
  const AttemptResult result =
      drive(executor, attempt, [&](const std::vector<SetGossipAgent>&) {
        ++calls;
        return false;
      });
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(result.rounds_run, 7);
  EXPECT_EQ(result.messages_delivered, 7 * 8);
}

TEST(Drive, BitsAreMinusOneWithTheChannelOffAndMeteredOtherwise) {
  const auto never = [](const std::vector<SetGossipAgent>&) { return false; };
  Attempt attempt;
  attempt.rounds = 4;

  auto off = gossip_on_ring(5);
  EXPECT_EQ(drive(off, attempt, never).bits_total, -1);

  attempt.bandwidth_bits = -1;  // metered
  auto metered = gossip_on_ring(5);
  const AttemptResult result = drive(metered, attempt, never);
  EXPECT_GT(result.bits_total, 0);
  EXPECT_EQ(result.bits_total, metered.bandwidth_meter().total_bits_sent());
}

TEST(Drive, BoundedChannelBelowTheMessageSizeThrowsOutOfDrive) {
  auto executor = gossip_on_ring(5);
  Attempt attempt;
  attempt.rounds = 4;
  attempt.bandwidth_bits = 1;  // no gossip message fits in one bit
  int calls = 0;
  EXPECT_THROW(
      (void)drive(executor, attempt,
                  [&](const std::vector<SetGossipAgent>&) {
                    ++calls;
                    return false;
                  }),
      wire::BandwidthExceeded);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(executor.round(), 0);
}

}  // namespace
}  // namespace anonet
