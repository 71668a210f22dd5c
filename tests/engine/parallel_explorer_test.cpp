// Parity and determinism of the worker loop against the depth-first
// traversal: both must report the same verdict (violation-or-clean) on every
// covered configuration, and repeated worker-loop runs must agree with each
// other (deterministic first-violation reporting).
#include "engine/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hierarchy/recording.hpp"
#include "rc/team_consensus.hpp"
#include "support/programs.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

using test::BrokenConsensus;
using test::ConstantDecider;
using test::Looper;

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

sim::ExplorerConfig parallel_config(sim::ExplorerConfig config, int threads = 4) {
  config.num_threads = threads;
  return config;
}

struct ModelCase {
  std::string type_name;
  int n;
  int crash_budget;
  sim::CrashModel crash_model;
};

std::vector<ModelCase> model_cases() {
  return {
      {"Sn(2)", 2, 3, sim::CrashModel::kIndependent},
      {"Sn(3)", 3, 2, sim::CrashModel::kIndependent},
      {"Sn(3)", 3, 2, sim::CrashModel::kSimultaneous},
      {"Tn(4)", 2, 3, sim::CrashModel::kIndependent},
      {"compare-and-swap", 3, 2, sim::CrashModel::kIndependent},
      {"sticky-bit", 3, 2, sim::CrashModel::kSimultaneous},
      {"consensus-object", 2, 3, sim::CrashModel::kIndependent},
      {"readable-queue", 2, 3, sim::CrashModel::kIndependent},
  };
}

class ParallelParityTest : public ::testing::TestWithParam<ModelCase> {};

// On clean instances the two traversals walk the identical deduplicated
// graph, so not only the verdict but every counter must match.
TEST_P(ParallelParityTest, AgreesWithSequentialExplorer) {
  const ModelCase& c = GetParam();
  auto type = typesys::make_type(c.type_name);
  ASSERT_NE(type, nullptr);
  ASSERT_TRUE(hierarchy::is_recording(*type, c.n)) << "precondition";
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, c.n, kInputA, kInputB);

  sim::ExplorerConfig base;
  base.crash_model = c.crash_model;
  base.crash_budget = c.crash_budget;
  base.properties.valid_outputs = {kInputA, kInputB};

  ParallelExplorer sequential(system.memory, system.processes, parallel_config(base));
  const auto sequential_violation = sequential.run_dfs();

  ParallelExplorer parallel(system.memory, system.processes, parallel_config(base));
  const auto parallel_violation = parallel.run();

  EXPECT_EQ(sequential_violation.has_value(), parallel_violation.has_value());
  EXPECT_EQ(sequential.stats().visited, parallel.stats().visited);
  EXPECT_EQ(sequential.stats().transitions, parallel.stats().transitions);
  EXPECT_EQ(sequential.stats().decisions, parallel.stats().decisions);
  EXPECT_EQ(sequential.stats().terminal_states, parallel.stats().terminal_states);
}

INSTANTIATE_TEST_SUITE_P(Types, ParallelParityTest,
                         ::testing::ValuesIn(model_cases()),
                         [](const ::testing::TestParamInfo<ModelCase>& info) {
                           std::string name =
                               info.param.type_name + "_n" +
                               std::to_string(info.param.n) + "_c" +
                               std::to_string(info.param.crash_budget) +
                               (info.param.crash_model == sim::CrashModel::kIndependent
                                    ? "_ind"
                                    : "_sim");
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(ParallelExplorerTest, FindsAgreementViolationDeterministically) {
  sim::ExplorerConfig base;
  base.crash_budget = 0;
  base.properties.valid_outputs = {1, 2};

  std::optional<sim::Violation> first;
  for (int run = 0; run < 2; ++run) {
    sim::Memory memory;
    const sim::RegId reg = memory.add_register();
    std::vector<sim::Process> processes;
    processes.emplace_back(BrokenConsensus{reg, 1, 0});
    processes.emplace_back(BrokenConsensus{reg, 2, 0});
    ParallelExplorer explorer(std::move(memory), std::move(processes),
                              parallel_config(base));
    const auto violation = explorer.run();
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->description.find("agreement"), std::string::npos);
    EXPECT_FALSE(violation->schedule.empty());
    if (run == 0) {
      first = violation;
    } else {
      // Deterministic reporting: identical description and schedule both runs.
      EXPECT_EQ(violation->description, first->description);
      EXPECT_EQ(violation->schedule, first->schedule);
    }
  }
}

TEST(ParallelExplorerTest, ReportsLowestTraceViolation) {
  // The two-process BrokenConsensus violation space is symmetric; the lowest
  // lexicographic schedule starts with step(p0), so the winning report must
  // blame the interleaving that begins there — exactly what the sequential
  // DFS (which tries step(p0) first) reports.
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  sim::ExplorerConfig base;
  base.crash_budget = 0;
  base.properties.valid_outputs = {1, 2};

  ParallelExplorer sequential(memory, processes, parallel_config(base));
  const auto sequential_violation = sequential.run_dfs();
  ASSERT_TRUE(sequential_violation.has_value());

  ParallelExplorer parallel(memory, processes, parallel_config(base));
  const auto parallel_violation = parallel.run();
  ASSERT_TRUE(parallel_violation.has_value());
  EXPECT_EQ(parallel_violation->trace().rfind("step(p0)", 0), 0u)
      << "trace: " << parallel_violation->trace();
}

TEST(ParallelExplorerDeathTest, NegativeNumThreadsAsserts) {
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  sim::ExplorerConfig config;
  config.num_threads = -1;
  EXPECT_DEATH(ParallelExplorer(std::move(memory), std::move(processes), config),
               "num_threads");
}

TEST(ParallelExplorerTest, FindsValidityViolation) {
  sim::Memory memory;
  std::vector<sim::Process> processes;
  processes.emplace_back(ConstantDecider{99});
  sim::ExplorerConfig base;
  base.crash_budget = 0;
  base.properties.valid_outputs = {1, 2};
  ParallelExplorer explorer(std::move(memory), std::move(processes),
                            parallel_config(base));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("validity"), std::string::npos);
}

TEST(ParallelExplorerTest, WaitFreedomBoundFlagsLoopers) {
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(Looper{reg, 0});
  sim::ExplorerConfig base;
  base.crash_budget = 0;
  base.max_steps_per_run = 10;
  ParallelExplorer explorer(std::move(memory), std::move(processes),
                            parallel_config(base));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("wait-freedom"), std::string::npos);
}

TEST(ParallelExplorerTest, TruncatesAtMaxVisited) {
  auto type = typesys::make_type("Sn(3)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 3, kInputA, kInputB);
  sim::ExplorerConfig base;
  base.crash_budget = 2;
  base.properties.valid_outputs = {kInputA, kInputB};
  base.max_visited = 100;
  ParallelExplorer explorer(std::move(system.memory), std::move(system.processes),
                            parallel_config(base));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("max_visited"), std::string::npos);
  EXPECT_TRUE(explorer.stats().truncated());
}

TEST(ParallelExplorerTest, RunIsRepeatableOnSameInstance) {
  auto type = typesys::make_type("Sn(2)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 2, kInputA, kInputB);
  sim::ExplorerConfig base;
  base.crash_budget = 3;
  base.properties.valid_outputs = {kInputA, kInputB};
  ParallelExplorer explorer(std::move(system.memory), std::move(system.processes),
                            parallel_config(base));
  const auto first = explorer.run();
  const auto first_visited = explorer.stats().visited;
  const auto second = explorer.run();
  EXPECT_FALSE(first.has_value());
  EXPECT_FALSE(second.has_value());
  EXPECT_EQ(explorer.stats().visited, first_visited);
}

TEST(ParallelExplorerTest, SingleThreadSubsumesSequential) {
  auto type = typesys::make_type("compare-and-swap");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 2, kInputA, kInputB);
  sim::ExplorerConfig base;
  base.crash_budget = 2;
  base.properties.valid_outputs = {kInputA, kInputB};

  ParallelExplorer sequential(system.memory, system.processes, parallel_config(base));
  const auto sequential_violation = sequential.run_dfs();

  ParallelExplorer single(system.memory, system.processes,
                          parallel_config(base, /*threads=*/1));
  const auto single_violation = single.run();
  EXPECT_EQ(sequential_violation.has_value(), single_violation.has_value());
  EXPECT_EQ(sequential.stats().visited, single.stats().visited);
}

}  // namespace
}  // namespace rcons::engine
