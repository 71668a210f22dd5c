#include "sim/explorer.hpp"

#include <gtest/gtest.h>

#include "support/programs.hpp"

namespace rcons::sim {
namespace {

using test::BrokenConsensus;
using test::ConstantDecider;
using test::Looper;

TEST(ExplorerTest, FindsAgreementViolation) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1, 2};
  Explorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("agreement"), std::string::npos);
  EXPECT_FALSE(violation->schedule.empty());
  EXPECT_FALSE(violation->trace().empty());
}

TEST(ExplorerTest, FindsValidityViolation) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{99});
  ExplorerConfig config;
  config.properties.valid_outputs = {1, 2};
  config.crash_budget = 0;
  Explorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("validity"), std::string::npos);
}

TEST(ExplorerTest, CleanSystemPasses) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{1});
  processes.emplace_back(ConstantDecider{1});
  ExplorerConfig config;
  config.properties.valid_outputs = {1};
  config.crash_budget = 3;
  Explorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_FALSE(explorer.run().has_value());
  EXPECT_GT(explorer.stats().visited, 0u);
}

TEST(ExplorerTest, WaitFreedomBoundFlagsLoopers) {
  // A program that never decides must trip the per-run step bound.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(Looper{reg, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.max_steps_per_run = 10;
  Explorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("wait-freedom"), std::string::npos);
}

TEST(ExplorerTest, CrashBudgetRespected) {
  // With zero budget, BrokenConsensus run with a single process cannot
  // violate anything; with crash_after_decide it still cannot since no crash
  // moves exist.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1};
  Explorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_FALSE(explorer.run().has_value());
}

TEST(ExplorerTest, CrashRerunsProduceMoreDecisions) {
  // One BrokenConsensus process alone stays consistent even across crashes
  // (it re-writes the same input); the explorer must explore the re-runs.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig with_crashes;
  with_crashes.crash_budget = 2;
  with_crashes.properties.valid_outputs = {1};
  Explorer explorer(std::move(memory), std::move(processes), with_crashes);
  EXPECT_FALSE(explorer.run().has_value());
  ExplorerConfig no_crashes;
  no_crashes.crash_budget = 0;
  no_crashes.properties.valid_outputs = {1};
  Memory memory2;
  const RegId reg2 = memory2.add_register();
  std::vector<Process> processes2;
  processes2.emplace_back(BrokenConsensus{reg2, 1, 0});
  Explorer baseline(std::move(memory2), std::move(processes2), no_crashes);
  EXPECT_FALSE(baseline.run().has_value());
  EXPECT_GT(explorer.stats().visited, baseline.stats().visited);
}

TEST(ExplorerTest, SimultaneousModelCrashesEveryone) {
  // Two processes with different inputs and a shared register: under the
  // simultaneous model with budget 1, the explorer still finds the agreement
  // violation (crashes do not mask it).
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  ExplorerConfig config;
  config.crash_model = CrashModel::kSimultaneous;
  config.crash_budget = 1;
  config.properties.valid_outputs = {1, 2};
  Explorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_TRUE(explorer.run().has_value());
}

}  // namespace
}  // namespace rcons::sim
