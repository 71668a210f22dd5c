// Symmetry declarations for the tournament and staged systems
// (rc::staged_symmetry_classes): soundness on the binary tournaments (their
// classes are provably singletons — attaching them must not change any
// verdict or count) and a real visited-set reduction on the flat staged
// team-consensus system, where same-team same-op roles are interchangeable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "rc/discerning_consensus.hpp"
#include "rc/tournament.hpp"
#include "typesys/zoo.hpp"

namespace rcons::rc {
namespace {

check::CheckReport explore(check::ScenarioSystem system, int crash_budget,
                           check::CrashModel model = check::CrashModel::kIndependent) {
  check::CheckRequest request;
  request.system = std::move(system);
  request.budget.crash_budget = crash_budget;
  request.budget.crash_model = model;
  request.strategy = check::Strategy::kSequentialDFS;
  return check::check(std::move(request));
}

int distinct_classes(const std::vector<int>& classes) {
  return static_cast<int>(std::set<int>(classes.begin(), classes.end()).size());
}

TEST(StagedSymmetryTest, TournamentDeclaresOneClassPerParticipant) {
  auto type = typesys::make_type("Sn(3)");
  ASSERT_NE(type, nullptr);
  const TournamentSystem system = make_rc_tournament(*type, 3, {11, 22, 33});
  ASSERT_EQ(system.symmetry_classes.size(), system.processes.size());
  // Binary tournament participants split onto opposite teams at their lowest
  // common ancestor, so every class is a singleton (see rc/staged.hpp).
  EXPECT_EQ(distinct_classes(system.symmetry_classes),
            static_cast<int>(system.processes.size()));
}

TEST(StagedSymmetryTest, HaltingTournamentDeclarationIsSoundUnderExploration) {
  auto type = typesys::make_type("test-and-set");
  ASSERT_NE(type, nullptr);
  const std::vector<typesys::Value> inputs = {1, 2};
  HaltingConsensusSystem with = make_halting_consensus(std::move(type), 2, inputs);
  ASSERT_EQ(with.symmetry_classes.size(), with.processes.size());

  check::ScenarioSystem plain;
  plain.memory = with.memory;
  plain.processes = with.processes;
  plain.properties.valid_outputs = inputs;
  check::ScenarioSystem declared = plain;
  declared.symmetry_classes = with.symmetry_classes;

  // Singleton classes: the declaration must be a byte-for-byte no-op — same
  // verdict (the halting-TAS agreement violation), same schedule, same count.
  const check::CheckReport without_report = explore(std::move(plain), 1);
  const check::CheckReport with_report = explore(std::move(declared), 1);
  ASSERT_FALSE(without_report.clean);
  ASSERT_FALSE(with_report.clean);
  EXPECT_EQ(with_report.violation->schedule, without_report.violation->schedule);
  EXPECT_EQ(with_report.stats.visited, without_report.stats.visited);
}

TEST(StagedSymmetryTest, SpecSymmetryOnIsHonoredForHalting) {
  check::ScenarioSpec spec;
  spec.type = "test-and-set";
  spec.n = 2;
  spec.crash_budget = 1;
  spec.algo = check::ScenarioAlgo::kHaltingTournament;

  spec.symmetry = false;
  EXPECT_TRUE(check::build_spec_system(spec).symmetry_classes.empty());
  spec.symmetry = true;
  EXPECT_EQ(check::build_spec_system(spec).symmetry_classes.size(), 2u);
}

TEST(StagedSymmetryTest, FlatStagedTeamSystemHasInterchangeableRoles) {
  // Sn(4)'s recording witness places several same-op roles on one team; the
  // flat staged composition makes them interchangeable and the declaration
  // must say so.
  auto type = typesys::make_type("Sn(4)");
  ASSERT_NE(type, nullptr);
  const StagedTeamSystem system = make_staged_team_consensus(*type, 4, 101, 202);
  ASSERT_EQ(system.symmetry_classes.size(), system.processes.size());
  EXPECT_LT(distinct_classes(system.symmetry_classes),
            static_cast<int>(system.processes.size()));
}

TEST(StagedSymmetryTest, StagedReductionShrinksVisitedSetAndPreservesVerdict) {
  auto type = typesys::make_type("Sn(4)");
  ASSERT_NE(type, nullptr);
  StagedTeamSystem built = make_staged_team_consensus(*type, 4, 101, 202);

  check::ScenarioSystem plain;
  plain.memory = built.memory;
  plain.processes = built.processes;
  plain.properties.valid_outputs = {101, 202};
  check::ScenarioSystem reduced = plain;
  reduced.symmetry_classes = built.symmetry_classes;

  const check::CheckReport plain_report = explore(std::move(plain), 1);
  const check::CheckReport reduced_report = explore(std::move(reduced), 1);
  EXPECT_TRUE(plain_report.clean);
  EXPECT_TRUE(reduced_report.clean);
  EXPECT_TRUE(plain_report.complete);
  EXPECT_TRUE(reduced_report.complete);
  // The declaration collapses permutations of interchangeable roles: the
  // visited set must shrink strictly, not just stay equal.
  EXPECT_LT(reduced_report.stats.visited, plain_report.stats.visited);
  EXPECT_GT(reduced_report.stats.store.canonical_hits, 0u);
}

TEST(StagedSymmetryTest, TournamentDeclarationPreservesCleanVerdict) {
  auto type = typesys::make_type("Sn(3)");
  ASSERT_NE(type, nullptr);
  TournamentSystem built = make_rc_tournament(*type, 3, {11, 22});

  check::ScenarioSystem plain;
  plain.memory = built.memory;
  plain.processes = built.processes;
  plain.properties.valid_outputs = {11, 22};
  check::ScenarioSystem declared = plain;
  declared.symmetry_classes = built.symmetry_classes;

  const check::CheckReport without_report = explore(std::move(plain), 1);
  const check::CheckReport with_report = explore(std::move(declared), 1);
  EXPECT_EQ(with_report.clean, without_report.clean);
  EXPECT_EQ(with_report.stats.visited, without_report.stats.visited);
}

}  // namespace
}  // namespace rcons::rc
