// rc::make_k_set_team_consensus — the k-group split construction: group
// assignment, per-group inputs, decodability, and the two verdicts that
// motivate it ((k,n)-set agreement clean under crashes; plain agreement
// violated).
#include "rc/k_set.hpp"

#include <gtest/gtest.h>

#include <set>

#include "check/check.hpp"
#include "typesys/zoo.hpp"

namespace rcons::rc {
namespace {

check::CheckRequest request_for(KSetTeamSystem& system, sim::PropertySet properties,
                                int crash_budget) {
  properties.valid_outputs = system.inputs;
  check::CheckRequest request;
  request.system.memory = system.memory;
  request.system.processes = system.processes;
  request.system.properties = std::move(properties);
  request.budget.crash_budget = crash_budget;
  request.strategy = check::Strategy::kSequentialDFS;
  return request;
}

sim::PropertySet k_set_properties(int k) {
  sim::PropertySet properties = sim::PropertySet::none();
  properties.add({sim::PropertyKind::kKSetAgreement, k});
  properties.add({sim::PropertyKind::kValidity, 0});
  properties.add({sim::PropertyKind::kWaitFreedom, 0});
  return properties;
}

TEST(KSetTeamConsensusTest, BuildsRoundRobinGroupsWithPerGroupInputs) {
  auto type = typesys::make_type("Sn(2)");
  const KSetTeamSystem system = make_k_set_team_consensus(*type, 2, 3);
  EXPECT_EQ(system.groups, 2);
  ASSERT_EQ(system.processes.size(), 3u);
  ASSERT_EQ(system.inputs.size(), 3u);
  ASSERT_EQ(system.symmetry_classes.size(), 3u);

  // Groups are round-robin: p0 and p2 form group 0 (inputs in the 100s), p1
  // is the singleton group 1 (input in the 200s).
  EXPECT_EQ(system.inputs[0] / 100, 1);
  EXPECT_EQ(system.inputs[2] / 100, 1);
  EXPECT_EQ(system.inputs[1] / 100, 2);
  // Distinct per (group, team): the two group-0 members sit on opposite
  // teams of a size-2 witness.
  EXPECT_NE(system.inputs[0], system.inputs[2]);

  // Every program's encoding decodes back to itself (the explorers rebuild
  // process state from interned records).
  for (sim::Process process : system.processes) {
    std::vector<typesys::Value> image;
    process.encode(image);
    EXPECT_EQ(process.decode(image.data(), image.size()), image.size());
    std::vector<typesys::Value> again;
    process.encode(again);
    EXPECT_EQ(again, image);
  }
}

TEST(KSetTeamConsensusTest, KSetAgreementIsCleanUnderIndependentCrashes) {
  auto type = typesys::make_type("Sn(2)");
  KSetTeamSystem system = make_k_set_team_consensus(*type, 2, 3);
  const check::CheckReport report =
      check::check(request_for(system, k_set_properties(2), 1));
  EXPECT_TRUE(report.clean) << report.violation->description;
  EXPECT_TRUE(report.complete);
}

TEST(KSetTeamConsensusTest, PlainAgreementIsViolated) {
  // The same system judged by the classic consensus contract: two groups
  // with different inputs both decide, so agreement breaks.
  auto type = typesys::make_type("Sn(2)");
  KSetTeamSystem system = make_k_set_team_consensus(*type, 2, 3);
  const check::CheckReport report =
      check::check(request_for(system, sim::PropertySet(), 1));
  ASSERT_FALSE(report.clean);
  EXPECT_EQ(report.violation->property, sim::PropertyKind::kAgreement);
}

TEST(KSetTeamConsensusTest, SingletonGroupsDecideTheirInputWithoutMemory) {
  // k = n: every group is a singleton, nobody touches shared memory, and the
  // n distinct inputs are exactly n-set agreement.
  auto type = typesys::make_type("Sn(2)");
  KSetTeamSystem system = make_k_set_team_consensus(*type, 3, 3);
  const std::set<typesys::Value> inputs(system.inputs.begin(), system.inputs.end());
  EXPECT_EQ(inputs.size(), 3u);

  const check::CheckReport report =
      check::check(request_for(system, k_set_properties(3), 1));
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.complete);
}

TEST(KSetTeamConsensusTest, SymmetryDeclarationPreservesTheVerdict) {
  // Attaching the staged symmetry declaration must not change the k-set
  // verdict (classes are mostly singletons here; soundness is the point).
  auto type = typesys::make_type("Sn(2)");
  KSetTeamSystem system = make_k_set_team_consensus(*type, 2, 4);
  check::CheckRequest request = request_for(system, k_set_properties(2), 1);
  request.system.symmetry_classes = system.symmetry_classes;
  const check::CheckReport reduced = check::check(std::move(request));
  EXPECT_TRUE(reduced.clean) << reduced.violation->description;
  EXPECT_TRUE(reduced.complete);
}

}  // namespace
}  // namespace rcons::rc
