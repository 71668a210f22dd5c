// Determinism of the batched parallel hot path: on the corpus's violating
// instances (halting-TAS, register-race) and on a clean team-consensus
// instance, parallel exploration at t ∈ {1, 2, 4, 8} must report the
// identical lowest-trace violation and identical visited count — independent
// of thread count, batching, stealing, and the per-worker dedup caches — and
// must agree with the sequential DFS wherever the contract promises it:
// the verdict everywhere, every counter on clean instances (where both
// explorers do identical work). The two explorers' *violations* differ by
// design on instances with several violating edges: sequential DFS stops at
// the first violation its depth-first order meets, while the engine drains
// the graph and reports the globally lexicographically-lowest trace (on
// halting-TAS that is a validity violation down an all-step(p0) path, not
// the agreement violation the DFS trips over first).
//
// Doubles as the steady-state proof for the allocation-free hot path: the
// new ExplorerStats::hot counters must show avoided allocations and real
// batching on every parallel run.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

check::CheckReport run(const check::ScenarioSystem& system,
                       const check::Budget& budget, check::Strategy strategy,
                       int threads) {
  check::CheckRequest request;
  request.system = system;
  request.budget = budget;
  request.strategy = strategy;
  request.num_threads = threads;
  return check::check(std::move(request));
}

void expect_hot_path_engaged(const check::CheckReport& report) {
  // Steady-state proof: inline items + arena links replaced per-item heap
  // allocations, and successors were submitted in real batches.
  EXPECT_GT(report.stats.hot.allocations_avoided, 0u);
  EXPECT_GT(report.stats.hot.batches, 0u);
  EXPECT_GT(report.stats.hot.avg_batch(), 1.0);
  EXPECT_GT(report.stats.hot.probe_ops, 0u);
}

struct CorpusCase {
  std::string name;
  check::ScenarioSystem system;
  check::Budget budget;
};

std::vector<CorpusCase> corpus_cases() {
  std::vector<CorpusCase> cases;
  const auto dir = std::filesystem::path(RCONS_SOURCE_DIR) / "tests" / "corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".viol") continue;
    const check::ViolationParse parse =
        check::load_violation_file(entry.path().string());
    if (!parse.ok()) continue;
    CorpusCase corpus_case;
    corpus_case.name = entry.path().filename().string();
    corpus_case.system = check::build_spec_system(parse.file->scenario);
    corpus_case.budget.crash_model = parse.file->scenario.crash_model;
    corpus_case.budget.crash_budget = parse.file->scenario.crash_budget;
    if (parse.file->scenario.max_steps_per_run >= 0) {
      corpus_case.budget.max_steps_per_run = parse.file->scenario.max_steps_per_run;
    }
    cases.push_back(std::move(corpus_case));
  }
  return cases;
}

TEST(DeterminismStressTest, CorpusViolationsAreIdenticalAcrossThreadCounts) {
  const auto cases = corpus_cases();
  ASSERT_GE(cases.size(), 2u) << "corpus not seeded";

  for (const CorpusCase& corpus_case : cases) {
    SCOPED_TRACE(corpus_case.name);
    const check::CheckReport sequential = run(
        corpus_case.system, corpus_case.budget, check::Strategy::kSequentialDFS, 0);
    ASSERT_FALSE(sequential.clean);
    ASSERT_TRUE(sequential.violation.has_value());

    std::optional<sim::Violation> first;
    std::optional<std::uint64_t> first_visited;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const check::CheckReport parallel = run(
          corpus_case.system, corpus_case.budget, check::Strategy::kParallelBFS,
          threads);
      ASSERT_FALSE(parallel.clean);
      ASSERT_TRUE(parallel.violation.has_value());
      expect_hot_path_engaged(parallel);

      // The reported violation and the visited count are pinned across
      // thread counts: batching, stealing, and the per-worker caches must
      // not leak into what the engine reports. (Sequential stops at its
      // first violation, so its schedule and visited count are a different,
      // prefix-shaped object — only the verdict is comparable above.)
      if (!first.has_value()) {
        first = parallel.violation;
        first_visited = parallel.stats.visited;
      } else {
        EXPECT_EQ(parallel.violation->description, first->description);
        EXPECT_EQ(parallel.violation->schedule, first->schedule);
        EXPECT_EQ(parallel.stats.visited, *first_visited);
      }
    }
  }
}

TEST(DeterminismStressTest, CleanInstanceMatchesSequentialAtEveryThreadCount) {
  constexpr typesys::Value kInputA = 101;
  constexpr typesys::Value kInputB = 202;
  auto type = typesys::make_type("Sn(3)");
  ASSERT_NE(type, nullptr);
  rc::TeamConsensusSystem built =
      rc::make_team_consensus_system(*type, 3, kInputA, kInputB);
  check::ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = {kInputA, kInputB};
  check::Budget budget;
  budget.crash_budget = 2;

  const check::CheckReport sequential =
      run(system, budget, check::Strategy::kSequentialDFS, 0);
  ASSERT_TRUE(sequential.clean);
  ASSERT_TRUE(sequential.complete);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const check::CheckReport parallel =
        run(system, budget, check::Strategy::kParallelBFS, threads);
    EXPECT_TRUE(parallel.clean);
    EXPECT_TRUE(parallel.complete);
    EXPECT_EQ(parallel.stats.visited, sequential.stats.visited);
    EXPECT_EQ(parallel.stats.transitions, sequential.stats.transitions);
    EXPECT_EQ(parallel.stats.decisions, sequential.stats.decisions);
    EXPECT_EQ(parallel.stats.terminal_states, sequential.stats.terminal_states);
    expect_hot_path_engaged(parallel);
  }
}

TEST(DeterminismStressTest, SymmetryReductionIsDeterministicAcrossThreadCounts) {
  // The orbit-aware expansion (one representative event per stabilizer orbit)
  // must not disturb determinism: on a symmetric instance the sequential DFS
  // and every parallel thread count agree on the reduced visited count, the
  // transition total, and the clean verdict. The orbit_skipped tally itself
  // is NOT pinned across backends: the orbit partition reads the sidecar
  // (steps_in_run), which lies outside the fingerprint, so which
  // sidecar-variant record wins an intern race is scheduling-dependent. That
  // only moves events between "enumerated" and "skipped" — their sum per
  // record, and hence visited / transitions / the verdict, is invariant.
  constexpr typesys::Value kInputA = 101;
  constexpr typesys::Value kInputB = 202;
  auto type = typesys::make_type("Sn(4)");
  ASSERT_NE(type, nullptr);
  rc::TeamConsensusSystem built =
      rc::make_team_consensus_system(*type, 4, kInputA, kInputB);
  check::ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = {kInputA, kInputB};
  system.symmetry_classes = built.symmetry_classes;
  check::Budget budget;
  budget.crash_budget = 1;

  const check::CheckReport sequential =
      run(system, budget, check::Strategy::kSequentialDFS, 0);
  ASSERT_TRUE(sequential.clean);
  ASSERT_TRUE(sequential.complete);
  EXPECT_EQ(sequential.threads_used, 1);
  // The reduction actually engaged: siblings were skipped, and every skip is
  // still accounted as a transition of the unreduced graph.
  EXPECT_GT(sequential.stats.orbit_skipped, 0u);
  EXPECT_GE(sequential.stats.transitions, sequential.stats.orbit_skipped);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const check::CheckReport parallel =
        run(system, budget, check::Strategy::kParallelBFS, threads);
    EXPECT_TRUE(parallel.clean);
    EXPECT_TRUE(parallel.complete);
    EXPECT_EQ(parallel.threads_used, threads);
    EXPECT_EQ(parallel.stats.visited, sequential.stats.visited);
    EXPECT_EQ(parallel.stats.transitions, sequential.stats.transitions);
    EXPECT_EQ(parallel.stats.terminal_states, sequential.stats.terminal_states);
    EXPECT_GT(parallel.stats.orbit_skipped, 0u);
    expect_hot_path_engaged(parallel);
  }
}

}  // namespace
}  // namespace rcons::engine
