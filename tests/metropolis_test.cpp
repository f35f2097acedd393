// Tests for Metropolis averaging (core/metropolis.hpp) on symmetric static
// and dynamic networks.

#include "core/metropolis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

TEST(Metropolis, AveragesOnStaticSymmetricGraph) {
  const std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<MetropolisAgent> agents;
  for (double v : values) agents.emplace_back(v);
  Executor<MetropolisAgent> exec(
      std::make_shared<StaticSchedule>(random_symmetric_connected(8, 4, 3)),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(400);
  for (Vertex v = 0; v < 8; ++v) {
    EXPECT_NEAR(exec.agent(v).output(), 4.5, 1e-6) << v;
  }
}

TEST(Metropolis, PreservesTheSumEveryRound) {
  std::vector<MetropolisAgent> agents;
  const std::vector<double> values{3, -1, 4, 1, -5};
  for (double v : values) agents.emplace_back(v);
  Executor<MetropolisAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(5, 2, 11), std::move(agents),
      CommModel::kOutdegreeAware);
  for (int round = 0; round < 60; ++round) {
    exec.step();
    double total = 0.0;
    for (Vertex v = 0; v < 5; ++v) total += exec.agent(v).output();
    EXPECT_NEAR(total, 2.0, 1e-9) << round;
  }
}

TEST(Metropolis, ConvergesOnDynamicSymmetricNetworks) {
  const std::vector<double> values{0, 0, 0, 12, 0, 0};
  std::vector<MetropolisAgent> agents;
  for (double v : values) agents.emplace_back(v);
  Executor<MetropolisAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(6, 3, 7), std::move(agents),
      CommModel::kOutdegreeAware);
  exec.run(500);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_NEAR(exec.agent(v).output(), 2.0, 1e-6) << v;
  }
}

TEST(Metropolis, ToleratesAsynchronousStarts) {
  auto inner = std::make_shared<RandomSymmetricSchedule>(4, 2, 19);
  auto schedule = std::make_shared<AsyncStartSchedule>(
      inner, std::vector<int>{1, 6, 3, 9});
  std::vector<MetropolisAgent> agents;
  for (double v : {8.0, 0.0, 4.0, 4.0}) agents.emplace_back(v);
  Executor<MetropolisAgent> exec(schedule, std::move(agents),
                                 CommModel::kOutdegreeAware);
  exec.run(600);
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_NEAR(exec.agent(v).output(), 4.0, 1e-6) << v;
  }
}

TEST(Metropolis, RequiresOutdegreeAwareness) {
  MetropolisAgent agent(1.0);
  MetropolisAgent::Message slot;
  EXPECT_THROW(agent.send(slot, 0, 0), std::logic_error);
}

TEST(FrequencyMetropolis, IndicatorAveragesAreFrequencies) {
  const std::vector<std::int64_t> inputs{1, 1, 2, 2, 2, 9, 9, 9};
  std::vector<FrequencyMetropolisAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyMetropolisAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(8, 4, 5), std::move(agents),
      CommModel::kOutdegreeAware);
  exec.run(600);
  for (Vertex v = 0; v < 8; ++v) {
    const auto& est = exec.agent(v).estimates();
    EXPECT_NEAR(est.at(1), 0.25, 1e-6);
    EXPECT_NEAR(est.at(2), 0.375, 1e-6);
    EXPECT_NEAR(est.at(9), 0.375, 1e-6);
  }
}

TEST(FrequencyMetropolis, LazyJoiningPreservesPerValueSums) {
  // The per-value global sum must stay equal to the initial multiplicity in
  // every round, despite values materializing lazily at different agents.
  const std::vector<std::int64_t> inputs{4, 4, 6, 6, 6, 1};
  std::vector<FrequencyMetropolisAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyMetropolisAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(6, 2, 29), std::move(agents),
      CommModel::kOutdegreeAware);
  for (int round = 0; round < 40; ++round) {
    exec.step();
    std::map<std::int64_t, double> totals;
    for (Vertex v = 0; v < 6; ++v) {
      for (const auto& [value, x] : exec.agent(v).estimates()) {
        totals[value] += x;
      }
    }
    EXPECT_NEAR(totals[4], 2.0, 1e-9) << round;
    EXPECT_NEAR(totals[6], 3.0, 1e-9) << round;
    EXPECT_NEAR(totals[1], 1.0, 1e-9) << round;
  }
}

TEST(FrequencyMetropolis, RoundedFrequencyLocksExactly) {
  const std::vector<std::int64_t> inputs{7, 7, 7, 2};
  std::vector<FrequencyMetropolisAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyMetropolisAgent> exec(
      std::make_shared<StaticSchedule>(random_symmetric_connected(4, 2, 13)),
      std::move(agents), CommModel::kOutdegreeAware);
  const Frequency truth = Frequency::of(inputs);
  exec.run(250);
  for (int extra = 0; extra < 5; ++extra) {
    exec.step();
    for (Vertex v = 0; v < 4; ++v) {
      const auto rounded = exec.agent(v).rounded_frequency(6);
      ASSERT_TRUE(rounded.has_value());
      EXPECT_EQ(*rounded, truth);
    }
  }
}

TEST(FrequencyMetropolis, EstimatesStayInUnitInterval) {
  // Metropolis iterates are convex-ish combinations: indicator averages
  // must remain within [0, 1] (allowing tiny float slack).
  const std::vector<std::int64_t> inputs{1, 2, 3, 4, 5};
  std::vector<FrequencyMetropolisAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyMetropolisAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(5, 3, 31), std::move(agents),
      CommModel::kOutdegreeAware);
  for (int round = 0; round < 50; ++round) {
    exec.step();
    for (Vertex v = 0; v < 5; ++v) {
      for (const auto& [value, x] : exec.agent(v).estimates()) {
        EXPECT_GE(x, -1e-12);
        EXPECT_LE(x, 1.0 + 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace anonet
