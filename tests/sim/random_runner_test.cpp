#include "sim/random_runner.hpp"

#include <gtest/gtest.h>

#include "rc/naive_register.hpp"
#include "rc/race.hpp"
#include "sim/replay.hpp"
#include "typesys/types/rmw.hpp"

namespace rcons::sim {
namespace {

std::pair<Memory, std::vector<Process>> make_race_system(int n) {
  auto cache = std::make_shared<typesys::TransitionCache>(
      std::make_shared<const typesys::CompareAndSwapType>(), n);
  Memory memory;
  const rc::RaceInstance instance = rc::install_race(memory, cache);
  std::vector<Process> processes;
  for (int i = 0; i < n; ++i) {
    processes.emplace_back(rc::RaceConsensusProgram(instance, i, i + 1));
  }
  return {std::move(memory), std::move(processes)};
}

TEST(RandomRunnerTest, CompletesAndAgrees) {
  auto [memory, processes] = make_race_system(4);
  RandomRunConfig config;
  config.seed = 7;
  config.crash_per_mille = 100;
  config.properties.valid_outputs = {1, 2, 3, 4};
  const auto report = run_random(std::move(memory), std::move(processes), config);
  EXPECT_TRUE(report.all_decided);
  EXPECT_FALSE(report.violation.has_value());
  EXPECT_GE(report.outputs.size(), 4u);
}

TEST(RandomRunnerTest, DeterministicForFixedSeed) {
  RandomRunConfig config;
  config.seed = 1234;
  config.crash_per_mille = 200;
  auto [m1, p1] = make_race_system(3);
  auto [m2, p2] = make_race_system(3);
  const auto a = run_random(std::move(m1), std::move(p1), config);
  const auto b = run_random(std::move(m2), std::move(p2), config);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.crashes, b.crashes);
}

TEST(RandomRunnerTest, DifferentSeedsDiffer) {
  RandomRunConfig c1;
  c1.seed = 1;
  RandomRunConfig c2;
  c2.seed = 2;
  c1.crash_per_mille = c2.crash_per_mille = 300;
  c1.crash_budget = c2.crash_budget = 20;
  auto [m1, p1] = make_race_system(5);
  auto [m2, p2] = make_race_system(5);
  const auto a = run_random(std::move(m1), std::move(p1), c1);
  const auto b = run_random(std::move(m2), std::move(p2), c2);
  // Schedules differ with overwhelming probability; compare step counts and
  // crash tallies as a proxy.
  EXPECT_TRUE(a.steps != b.steps || a.crashes != b.crashes || a.outputs != b.outputs);
}

TEST(RandomRunnerTest, CrashBudgetHonored) {
  auto [memory, processes] = make_race_system(3);
  RandomRunConfig config;
  config.seed = 99;
  config.crash_per_mille = 900;
  config.crash_budget = 5;
  const auto report = run_random(std::move(memory), std::move(processes), config);
  EXPECT_LE(report.crashes, 5);
  EXPECT_TRUE(report.all_decided);
}

TEST(RandomRunnerTest, ZeroCrashRateNeverCrashes) {
  auto [memory, processes] = make_race_system(3);
  RandomRunConfig config;
  config.seed = 11;
  config.crash_per_mille = 0;  // lower edge of the documented [0, 1000] range
  config.crash_budget = 8;
  const auto report = run_random(std::move(memory), std::move(processes), config);
  EXPECT_EQ(report.crashes, 0);
  EXPECT_TRUE(report.all_decided);
  EXPECT_FALSE(report.violation.has_value());
}

TEST(RandomRunnerTest, FullCrashRateCrashesEverySlotUntilBudgetSpent) {
  auto [memory, processes] = make_race_system(3);
  RandomRunConfig config;
  config.seed = 12;
  config.crash_per_mille = 1000;  // upper edge: crash whenever budget remains
  config.crash_budget = 6;
  const auto report = run_random(std::move(memory), std::move(processes), config);
  // Every slot where a crash is enabled (budget remains and some process has
  // stepped in its run or decided) injects one, so the budget is spent by
  // crashing each first step until it runs out.
  EXPECT_EQ(report.crashes, config.crash_budget);
  EXPECT_TRUE(report.all_decided);
  EXPECT_FALSE(report.violation.has_value());
}

TEST(RandomRunnerDeathTest, OutOfRangeCrashRateAsserts) {
  auto [memory, processes] = make_race_system(2);
  RandomRunConfig config;
  config.crash_per_mille = 1001;
  EXPECT_DEATH(run_random(std::move(memory), std::move(processes), config),
               "crash_per_mille");
}

TEST(RandomRunnerTest, RecordedScheduleReplaysIdentically) {
  // Every random run records its schedule in the shared ScheduleEvent
  // vocabulary and picks only events the engine enables, so the schedule is
  // an execution of the model: replay under the same budget takes every
  // event and reproduces the exact output sequence and violation. The CAS
  // race stays clean; the naive register breaks agreement on most seeds.
  const auto naive_register_system = [] {
    rc::NaiveRegisterSystem system = rc::make_naive_register_system(3);
    return std::pair{std::move(system.memory), std::move(system.processes)};
  };
  int violations = 0;
  for (const bool racy : {false, true}) {
    for (const check::CrashModel model :
         {check::CrashModel::kIndependent, check::CrashModel::kSimultaneous}) {
      for (const std::uint64_t seed : {3, 21, 42, 77, 1001}) {
        SCOPED_TRACE(std::string(racy ? "naive-register" : "cas-race") + " model=" +
                     std::to_string(static_cast<int>(model)) +
                     " seed=" + std::to_string(seed));
        auto [memory, processes] = racy ? naive_register_system() : make_race_system(3);
        auto [memory2, processes2] = racy ? naive_register_system() : make_race_system(3);
        RandomRunConfig config;
        config.seed = seed;
        config.crash_model = model;
        config.crash_per_mille = 250;
        config.crash_budget = 4;
        config.properties.add({PropertyKind::kAtMostOnceDecide, 0});
        const auto report = run_random(std::move(memory), std::move(processes), config);
        ASSERT_FALSE(report.schedule.empty());
        EXPECT_EQ(report.schedule.size(),
                  static_cast<std::size_t>(report.steps + report.crashes));
        EXPECT_EQ(report.violation.has_value(), racy && report.violation.has_value());
        violations += report.violation.has_value() ? 1 : 0;
        const auto replayed = replay(std::move(memory2), std::move(processes2),
                                     report.schedule, config.properties, config);
        EXPECT_FALSE(replayed.rejected.has_value());
        EXPECT_EQ(replayed.outputs, report.outputs);
        EXPECT_EQ(replayed.violation, report.violation);
      }
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(RandomRunnerTest, SimultaneousModelRuns) {
  auto [memory, processes] = make_race_system(3);
  RandomRunConfig config;
  config.seed = 5;
  config.crash_model = check::CrashModel::kSimultaneous;
  config.crash_per_mille = 200;
  config.crash_budget = 3;
  const auto report = run_random(std::move(memory), std::move(processes), config);
  EXPECT_TRUE(report.all_decided);
  EXPECT_FALSE(report.violation.has_value());
}

}  // namespace
}  // namespace rcons::sim
