// Scripted regressions for the Figure 2 narratives in Section 3.1, plus the
// simultaneous-crash sanity checks (an RC algorithm must also survive the
// weaker simultaneous model).
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "rc/team_consensus.hpp"
#include "sim/replay.hpp"
#include "typesys/zoo.hpp"

namespace rcons::rc {
namespace {

constexpr typesys::Value kInputA = 71;
constexpr typesys::Value kInputB = 72;

// Finds a role on the requested (normalized) team.
int role_on_team(const TeamConsensusPlan& plan, int team, int skip = 0) {
  for (int role = 0; role < plan.n(); ++role) {
    if (plan.team[static_cast<std::size_t>(role)] == team && skip-- == 0) return role;
  }
  ADD_FAILURE() << "no role on team " << team;
  return -1;
}

TEST(TeamConsensusReplayTest, LoneTeamBDefersToStartedTeamA) {
  // The |B| = 1 defer path (Figure 2 lines 19-20): the lone B process reads
  // the object in state q0 but sees R_A written, so it returns team A's input
  // without ever updating the object.
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type("Sn(4)");
  TeamConsensusSystem system = make_team_consensus_system(*type, 4, kInputA, kInputB);
  const TeamConsensusPlan& plan = *system.plan;
  // S_n's normalized plan has the lone process on team B.
  ASSERT_EQ(plan.team_size[1], 1);
  const int lone_b = role_on_team(plan, 1);
  const int some_a = role_on_team(plan, 0);

  const auto report = sim::replay(std::move(system.memory), std::move(system.processes),
                                  {
                                      sim::ScheduleEvent::step(some_a),  // writes R_A
                                      sim::ScheduleEvent::step(lone_b),  // writes R_B
                                      sim::ScheduleEvent::step(lone_b),  // reads q0
                                      sim::ScheduleEvent::step(lone_b),  // reads R_A ≠ ⊥ → defer
                                  });
  ASSERT_TRUE(report.decisions[static_cast<std::size_t>(lone_b)].has_value());
  EXPECT_EQ(*report.decisions[static_cast<std::size_t>(lone_b)],
            system.inputs[static_cast<std::size_t>(some_a)]);
  EXPECT_FALSE(report.violation.has_value());
}

TEST(TeamConsensusReplayTest, CrashedWinnerRerunsAndStaysConsistent) {
  // Difficulty (1) from Section 3: the first updater crashes and loses its
  // response; on re-run it must still reach the same decision, because the
  // decision is read from the object's *state*, not the lost response.
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type("Sn(3)");
  TeamConsensusSystem system = make_team_consensus_system(*type, 3, kInputA, kInputB);
  const int first = 0;
  std::vector<sim::ScheduleEvent> schedule = {
      sim::ScheduleEvent::step(first),  // announce
      sim::ScheduleEvent::step(first),  // read q0
      sim::ScheduleEvent::step(first),  // update (possibly defer read)
      sim::ScheduleEvent::step(first),  // second read / update
      sim::ScheduleEvent::crash(first),
  };
  // The re-run finds the object off q0 and decides in three accesses
  // (announce, read object, read register); so does everyone else afterwards.
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 3; ++i) schedule.push_back(sim::ScheduleEvent::step(p));
  }
  const auto report =
      sim::replay(std::move(system.memory), std::move(system.processes), schedule);
  EXPECT_FALSE(report.rejected.has_value());
  EXPECT_FALSE(report.violation.has_value()) << report.violation->description;
  EXPECT_EQ(report.outputs.size(), 3u);
  for (const typesys::Value out : report.outputs) {
    EXPECT_EQ(out, report.outputs.front());
  }
}

TEST(TeamConsensusReplayTest, SurvivesSimultaneousCrashModelToo) {
  // Independent-crash RC must in particular survive simultaneous crashes.
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type("Sn(3)");
  TeamConsensusSystem system = make_team_consensus_system(*type, 3, kInputA, kInputB);
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {kInputA, kInputB};
  request.budget.crash_model = check::CrashModel::kSimultaneous;
  request.budget.crash_budget = 2;
  request.strategy = check::Strategy::kAuto;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean)
      << report.violation->description << "\n  trace: " << report.violation->trace();
}

TEST(TeamConsensusReplayTest, ObjectAlreadyDecidedShortCircuits) {
  // A late-starting process that finds the object off q0 decides in three
  // accesses (announce, read object, read register) without updating.
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type("Sn(3)");
  TeamConsensusSystem system = make_team_consensus_system(*type, 3, kInputA, kInputB);
  std::vector<sim::ScheduleEvent> schedule;
  // p0 runs alone to its decision in six accesses.
  for (int i = 0; i < 6; ++i) schedule.push_back(sim::ScheduleEvent::step(0));
  schedule.push_back(sim::ScheduleEvent::step(1));  // announce
  schedule.push_back(sim::ScheduleEvent::step(1));  // read object (≠ q0)
  schedule.push_back(sim::ScheduleEvent::step(1));  // read winner register → decide
  const auto report =
      sim::replay(std::move(system.memory), std::move(system.processes), schedule);
  EXPECT_FALSE(report.rejected.has_value());
  ASSERT_TRUE(report.decisions[0].has_value());
  ASSERT_TRUE(report.decisions[1].has_value());
  EXPECT_EQ(*report.decisions[1], report.outputs.front());
}

}  // namespace
}  // namespace rcons::rc
