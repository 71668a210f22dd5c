// The depth-first traversal (ParallelExplorer::run_dfs, kSequentialDFS) on
// small hand-built systems: each property is found, clean systems pass, and
// the crash budget and crash models shape what is explored.
#include "engine/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "rc/team_consensus.hpp"
#include "support/programs.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

using check::CrashModel;
using sim::ExplorerConfig;
using sim::Memory;
using sim::Process;
using sim::RegId;

using test::BrokenConsensus;
using test::ConstantDecider;
using test::Looper;

TEST(DepthFirstTest, FindsAgreementViolation) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1, 2};
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run_dfs();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("agreement"), std::string::npos);
  EXPECT_FALSE(violation->schedule.empty());
  EXPECT_FALSE(violation->trace().empty());
}

TEST(DepthFirstTest, FindsValidityViolation) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{99});
  ExplorerConfig config;
  config.properties.valid_outputs = {1, 2};
  config.crash_budget = 0;
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run_dfs();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("validity"), std::string::npos);
}

TEST(DepthFirstTest, CleanSystemPasses) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{1});
  processes.emplace_back(ConstantDecider{1});
  ExplorerConfig config;
  config.properties.valid_outputs = {1};
  config.crash_budget = 3;
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_FALSE(explorer.run_dfs().has_value());
  EXPECT_GT(explorer.stats().visited, 0u);
}

TEST(DepthFirstTest, WaitFreedomBoundFlagsLoopers) {
  // A program that never decides must trip the per-run step bound.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(Looper{reg, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.max_steps_per_run = 10;
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  const auto violation = explorer.run_dfs();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("wait-freedom"), std::string::npos);
}

TEST(DepthFirstTest, CrashBudgetRespected) {
  // With zero budget, BrokenConsensus run with a single process cannot
  // violate anything: no crash moves exist, not even for the decided
  // process.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1};
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_FALSE(explorer.run_dfs().has_value());
}

TEST(DepthFirstTest, CrashRerunsProduceMoreDecisions) {
  // One BrokenConsensus process alone stays consistent even across crashes
  // (it re-writes the same input); the explorer must explore the re-runs.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig with_crashes;
  with_crashes.crash_budget = 2;
  with_crashes.properties.valid_outputs = {1};
  ParallelExplorer explorer(std::move(memory), std::move(processes), with_crashes);
  EXPECT_FALSE(explorer.run_dfs().has_value());
  ExplorerConfig no_crashes;
  no_crashes.crash_budget = 0;
  no_crashes.properties.valid_outputs = {1};
  Memory memory2;
  const RegId reg2 = memory2.add_register();
  std::vector<Process> processes2;
  processes2.emplace_back(BrokenConsensus{reg2, 1, 0});
  ParallelExplorer baseline(std::move(memory2), std::move(processes2), no_crashes);
  EXPECT_FALSE(baseline.run_dfs().has_value());
  EXPECT_GT(explorer.stats().visited, baseline.stats().visited);
}

TEST(DepthFirstTest, SimultaneousModelCrashesEveryone) {
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
  ParallelExplorer explorer(std::move(memory), std::move(processes), config);
  EXPECT_TRUE(explorer.run_dfs().has_value());
}

TEST(DepthFirstTest, LimitStopLeavesNoTransitionUnclassified) {
  // A run cut short by its memory limit (1 MiB trips at the first poll, after
  // 1024 transitions) or its deadline stops between two events, for the plain
  // traversal and a kAuto probe alike: the report and the registry count only
  // transitions that were classified.
  auto type = typesys::make_type("Sn(4)");
  rc::TeamConsensusSystem system = rc::make_team_consensus_system(*type, 4, 101, 202);
  for (const bool memory_limit : {true, false}) {
    for (const std::uint64_t probe_cap : {~std::uint64_t{0}, std::uint64_t{100'000}}) {
      SCOPED_TRACE(std::string(memory_limit ? "memory" : "deadline") + " probe_cap=" +
                   std::to_string(probe_cap));
      obs::MetricsRegistry registry;
      ExplorerConfig config;
      config.crash_budget = 1;
      config.properties.valid_outputs = {101, 202};
      config.mem_limit_mb = memory_limit ? 1 : 0;
      config.time_limit_ms = memory_limit ? 0 : 1;
      config.obs.metrics = &registry;
      ParallelExplorer explorer(system.memory, system.processes, config);
      const std::optional<sim::Violation> stop = explorer.run_dfs(probe_cap);
      ASSERT_TRUE(stop.has_value());
      const ExplorerStats& stats = explorer.stats();
      ASSERT_EQ(stats.stop_reason,
                memory_limit ? sim::StopReason::kMemory : sim::StopReason::kDeadline);
      EXPECT_EQ(stats.visited + stats.duplicates + stats.violation_edges + stats.orbit_skipped,
                stats.transitions);
      auto counter = [&](const char* name) { return registry.counter(name).total(); };
      EXPECT_EQ(counter("engine.transitions"), stats.transitions);
      EXPECT_EQ(counter("engine.visited_states") + counter("engine.duplicates") +
                    counter("engine.violation_edges") + counter("engine.orbit_skipped"),
                counter("engine.transitions"));
      if (memory_limit) {
        EXPECT_EQ(stats.transitions, 1024u);
        // The stop trace is the stack of applied events down to the state
        // being expanded; the event the poll came before is not in it.
        EXPECT_EQ(stop->schedule.size(), 12u);
      }
    }
  }
}

TEST(DepthFirstTest, ProbeCutDrainsTheStackInEventOrder) {
  // A kAuto probe stops recursing at its cap but classifies the remaining
  // events of every frame on its stack. What that drain defers and counts
  // depends on the order in which each frame interns its successors, so
  // these counts pin the depth-first expansion order; the escalation then
  // reaches the full state count.
  auto type = typesys::make_type("Sn(4)");
  rc::TeamConsensusSystem system = rc::make_team_consensus_system(*type, 4, 101, 202);
  struct Pin {
    bool symmetry;
    std::size_t deferred;
    std::uint64_t transitions, duplicates, violation_edges;
    std::size_t cut_path;
    std::uint64_t visited;
  };
  for (const Pin& pin : {Pin{false, 42, 3'908, 2'866, 0, 16, 38'837},
                         Pin{true, 35, 4'062, 2'453, 0, 18, 8'987}}) {
    SCOPED_TRACE(pin.symmetry ? "symmetry on" : "symmetry off");
    ExplorerConfig config;
    config.crash_budget = 1;
    config.properties.valid_outputs = {101, 202};
    if (pin.symmetry) config.symmetry_classes = system.symmetry_classes;
    ParallelExplorer explorer(system.memory, system.processes, config);
    const std::optional<sim::Violation> cut = explorer.run_dfs(1000);
    ASSERT_TRUE(cut.has_value());
    ASSERT_TRUE(explorer.can_escalate());
    const ExplorerStats& stats = explorer.stats();
    EXPECT_EQ(stats.stop_reason, sim::StopReason::kVisitedCap);
    EXPECT_EQ(explorer.deferred(), pin.deferred);
    EXPECT_EQ(stats.transitions, pin.transitions);
    EXPECT_EQ(stats.duplicates, pin.duplicates);
    EXPECT_EQ(stats.violation_edges, pin.violation_edges);
    // The probe's verdict is traced to the first state it deferred.
    EXPECT_EQ(cut->schedule.size(), pin.cut_path);
    EXPECT_FALSE(explorer.escalate().has_value());
    EXPECT_EQ(explorer.stats().visited, pin.visited);
  }
}

}  // namespace
}  // namespace rcons::engine
