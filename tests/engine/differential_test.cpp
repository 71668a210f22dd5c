// Differential test of the engine's two traversals against a naive reference
// explorer (tests/support/reference_explorer.hpp) that shares none of their
// hashing, dedup table, symmetry reduction or threads. With symmetry
// reduction off, ParallelExplorer::run_dfs(), the worker loop (run()) at 1
// and 4 threads, and a depth-first probe escalated into the worker loop must
// reach the oracle's verdict and exactly its visited / transition / decision
// / terminal counts on clean instances — with every transition classified
// once and the metrics registry equal to the report — and on a
// violating instance report a violation of the same property — with the
// oracle's schedule for the depth-first traversal, and with a schedule that
// replays to that property for the worker loop. With symmetry reduction on,
// the visited set must only shrink (never grow) and the verdict must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/parallel_explorer.hpp"
#include "obs/metrics.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "sim/replay.hpp"
#include "support/reference_explorer.hpp"
#include "support/stats_contract.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;
constexpr int kThreadCounts[] = {1, 4};
// Small enough that every seed case's probe stops at it and escalates.
constexpr std::uint64_t kProbeCap = 50;

struct Outcome {
  std::optional<sim::Violation> violation;
  ExplorerStats stats;
  obs::MetricsSnapshot metrics;
};

enum class Traversal { kDepthFirst, kWorkerLoop, kEscalated };

struct System {
  sim::Memory memory;
  std::vector<sim::Process> processes;
  std::vector<int> symmetry_classes;
};

test::ReferenceResult run_reference(const System& system, const sim::ExplorerConfig& config) {
  return test::ReferenceExplorer(config).run(system.memory, system.processes);
}

Outcome run_engine(const System& system, sim::ExplorerConfig config, int threads,
                   Traversal traversal) {
  obs::MetricsRegistry registry;
  config.num_threads = threads;
  config.obs.metrics = &registry;
  ParallelExplorer explorer(system.memory, system.processes, config);
  Outcome outcome;
  switch (traversal) {
    case Traversal::kDepthFirst:
      outcome.violation = explorer.run_dfs();
      break;
    case Traversal::kWorkerLoop:
      outcome.violation = explorer.run();
      break;
    case Traversal::kEscalated:
      outcome.violation = explorer.run_dfs(kProbeCap);
      EXPECT_TRUE(explorer.can_escalate());
      if (explorer.can_escalate()) outcome.violation = explorer.escalate();
      break;
  }
  outcome.stats = explorer.stats();
  outcome.metrics = registry.snapshot();
  return outcome;
}

Outcome run_sequential(const System& system, const sim::ExplorerConfig& config) {
  return run_engine(system, config, 0, Traversal::kDepthFirst);
}

Outcome run_parallel(const System& system, const sim::ExplorerConfig& config, int threads) {
  return run_engine(system, config, threads, Traversal::kWorkerLoop);
}

void expect_oracle_counts(const test::ReferenceResult& oracle, const Outcome& outcome,
                          const std::string& label) {
  EXPECT_EQ(oracle.violation.has_value(), outcome.violation.has_value()) << label;
  EXPECT_FALSE(outcome.stats.truncated()) << label;
  EXPECT_EQ(oracle.visited, outcome.stats.visited) << label;
  EXPECT_EQ(oracle.transitions, outcome.stats.transitions) << label;
  EXPECT_EQ(oracle.decisions, outcome.stats.decisions) << label;
  EXPECT_EQ(oracle.terminal_states, outcome.stats.terminal_states) << label;
  // The report alone shows every transition classified exactly once, and the
  // registry holds the report's counts, counter by counter.
  EXPECT_EQ(outcome.stats.visited + outcome.stats.duplicates + outcome.stats.violation_edges +
                outcome.stats.orbit_skipped,
            outcome.stats.transitions)
      << label;
  test::expect_registry_matches_stats(outcome.metrics, outcome.stats, label);
  // Interned nodes = visited states + the root.
  EXPECT_EQ(outcome.stats.store_nodes, outcome.stats.visited + 1) << label;
}

System team_consensus_system(const std::string& type_name, int n) {
  auto type = typesys::make_type(type_name);
  EXPECT_NE(type, nullptr) << type_name;
  rc::TeamConsensusSystem built = rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  return System{std::move(built.memory), std::move(built.processes),
                std::move(built.symmetry_classes)};
}

struct SeedCase {
  std::string type_name;
  int n;
  int crash_budget;
  sim::CrashModel crash_model;
  std::uint64_t pinned_visited;  // 0 = not pinned
};

class DifferentialSeedTest : public ::testing::TestWithParam<SeedCase> {};

TEST_P(DifferentialSeedTest, DriversMatchTheReferenceExplorer) {
  const SeedCase& c = GetParam();
  const System system = team_consensus_system(c.type_name, c.n);

  sim::ExplorerConfig config;
  config.crash_model = c.crash_model;
  config.crash_budget = c.crash_budget;
  config.properties.valid_outputs = {kInputA, kInputB};

  const test::ReferenceResult oracle = run_reference(system, config);
  EXPECT_FALSE(oracle.violation.has_value()) << oracle.violation->description;
  EXPECT_GT(oracle.visited, 0u);
  if (c.pinned_visited != 0) {
    EXPECT_EQ(oracle.visited, c.pinned_visited);
  }

  const Outcome sequential = run_sequential(system, config);
  expect_oracle_counts(oracle, sequential, "sequential");
  EXPECT_GT(sequential.stats.store_bytes, 0u);  // every record costs bytes
  EXPECT_EQ(sequential.stats.canonical_hits, 0u);  // symmetry off

  for (const int threads : kThreadCounts) {
    expect_oracle_counts(oracle, run_parallel(system, config, threads),
                         "parallel t=" + std::to_string(threads));
  }
  expect_oracle_counts(oracle, run_engine(system, config, 2, Traversal::kEscalated),
                       "escalated t=2");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DifferentialSeedTest,
    ::testing::Values(SeedCase{"Sn(2)", 2, 3, sim::CrashModel::kIndependent, 0},
                      SeedCase{"Sn(3)", 3, 2, sim::CrashModel::kIndependent, 0},
                      SeedCase{"sticky-bit", 3, 2, sim::CrashModel::kSimultaneous, 0},
                      SeedCase{"Tn(4)", 2, 3, sim::CrashModel::kIndependent, 0},
                      SeedCase{"Sn(4)", 4, 1, sim::CrashModel::kIndependent, 38'837}),
    [](const ::testing::TestParamInfo<SeedCase>& info) {
      std::string name = info.param.type_name + "_n" + std::to_string(info.param.n) + "_c" +
                         std::to_string(info.param.crash_budget) +
                         (info.param.crash_model == sim::CrashModel::kIndependent ? "_ind"
                                                                                  : "_sim");
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(DifferentialTest, NaiveRegisterRaceMatchesTheReferenceViolation) {
  // The depth-first traversal stops at the first violation of the same DFS,
  // so it must report the oracle's schedule. The worker loop reports the
  // lowest trace among all it found, which must break the same property and
  // replay to it from the root.
  rc::NaiveRegisterSystem built = rc::make_naive_register_system(2);
  const System system{std::move(built.memory), std::move(built.processes), {}};

  sim::ExplorerConfig config;
  config.crash_budget = 1;
  config.properties.valid_outputs = built.inputs;

  const test::ReferenceResult oracle = run_reference(system, config);
  ASSERT_TRUE(oracle.violation.has_value());
  EXPECT_NE(oracle.violation->property, sim::PropertyKind::kNone);

  const Outcome sequential = run_sequential(system, config);
  ASSERT_TRUE(sequential.violation.has_value());
  EXPECT_EQ(sequential.violation->schedule, oracle.violation->schedule);
  EXPECT_EQ(sequential.violation->property, oracle.violation->property);
  EXPECT_EQ(sequential.violation->description, oracle.violation->description);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("parallel t=" + std::to_string(threads));
    const Outcome parallel = run_parallel(system, config, threads);
    ASSERT_TRUE(parallel.violation.has_value());
    EXPECT_EQ(parallel.violation->property, oracle.violation->property);
    const sim::ReplayReport replayed =
        sim::replay(system.memory, system.processes, parallel.violation->schedule,
                    config.properties, config.max_steps_per_run);
    ASSERT_TRUE(replayed.violation.has_value());
    EXPECT_EQ(replayed.violation->property, oracle.violation->property);
  }
}

TEST(DifferentialTest, CanonicalizationOnlyShrinksTheVisitedSet) {
  for (const char* type_name : {"Sn(3)", "Sn(4)"}) {
    const int n = type_name == std::string("Sn(3)") ? 3 : 4;
    const System system = team_consensus_system(type_name, n);
    ASSERT_FALSE(system.symmetry_classes.empty());

    sim::ExplorerConfig config;
    config.crash_budget = 1;
    config.properties.valid_outputs = {kInputA, kInputB};

    const Outcome off = run_sequential(system, config);

    sim::ExplorerConfig with_symmetry = config;
    with_symmetry.symmetry_classes = system.symmetry_classes;
    const Outcome on = run_sequential(system, with_symmetry);

    EXPECT_EQ(off.violation.has_value(), on.violation.has_value()) << type_name;
    EXPECT_LE(on.stats.visited, off.stats.visited) << type_name;

    // The declaration only helps when some class has >= 2 members; when it
    // does, team consensus has genuinely symmetric reachable states.
    std::vector<int> counts(system.symmetry_classes.size(), 0);
    int largest = 0;
    for (const int cls : system.symmetry_classes) {
      largest = std::max(largest, ++counts[static_cast<std::size_t>(cls)]);
    }
    if (largest >= 2) {
      EXPECT_LT(on.stats.visited, off.stats.visited) << type_name;
      EXPECT_GT(on.stats.canonical_hits, 0u) << type_name;
    }

    // The worker loop agrees with the depth-first traversal under
    // canonicalization too.
    const Outcome parallel = run_parallel(system, with_symmetry, 4);
    EXPECT_EQ(parallel.violation.has_value(), on.violation.has_value()) << type_name;
    EXPECT_EQ(parallel.stats.visited, on.stats.visited) << type_name;
  }
}

}  // namespace
}  // namespace rcons::engine
