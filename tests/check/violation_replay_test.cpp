// The violation round-trip: a counterexample found by any explorer carries a
// typed ScheduleEvent schedule that, fed back through sim::replay on a
// pristine copy of the same system, reproduces the same property violation.
// This is what turns explorer findings into deterministic regression tests.
//
// Covered on two known-dirty scenarios:
//   * discerning-negative — Ruppert's halting algorithm over test-and-set
//     breaks under one crash (the schedule contains a CRASH event);
//   * register race — the classic write-then-read non-consensus breaks from
//     interleaving alone (no crashes).
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "rc/discerning_consensus.hpp"
#include "sim/replay.hpp"
#include "support/programs.hpp"
#include "typesys/zoo.hpp"

namespace rcons::check {
namespace {

using test::BrokenConsensus;
using test::ConstantDecider;
using test::Looper;

ScenarioSystem make_halting_tas_system() {
  auto type = typesys::make_type("test-and-set");
  rc::HaltingConsensusSystem system = rc::make_halting_consensus(std::move(type), 2, {5, 6});
  ScenarioSystem out;
  out.memory = std::move(system.memory);
  out.processes = std::move(system.processes);
  out.properties.valid_outputs = {5, 6};
  return out;
}

ScenarioSystem make_register_race_system() {
  ScenarioSystem out;
  const sim::RegId reg = out.memory.add_register();
  out.processes.emplace_back(BrokenConsensus{reg, 1, 0});
  out.processes.emplace_back(BrokenConsensus{reg, 2, 0});
  out.properties.valid_outputs = {1, 2};
  return out;
}

// Finds a violation with `strategy`, then replays its schedule on a pristine
// copy and asserts the same property breaks again.
void round_trip(ScenarioSystem found_on, ScenarioSystem replay_on, int crash_budget,
                Strategy strategy, const std::string& expected_property) {
  CheckRequest request;
  request.system = std::move(found_on);
  request.budget.crash_budget = crash_budget;
  request.strategy = strategy;
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find(expected_property), std::string::npos)
      << report.violation->description;
  ASSERT_FALSE(report.violation->schedule.empty());

  const sim::PropertyKind expected_kind = report.violation->property;
  const sim::ReplayReport replayed = sim::replay(
      std::move(replay_on.memory), std::move(replay_on.processes),
      report.violation->schedule, replay_on.properties);
  ASSERT_TRUE(replayed.violation.has_value())
      << "schedule did not reproduce: " << report.violation->trace();
  EXPECT_NE(replayed.violation->description.find(expected_property),
            std::string::npos)
      << replayed.violation->description;
  // The typed identity survives the cross-backend round trip too.
  EXPECT_EQ(replayed.violation->property, expected_kind);
}

TEST(ViolationReplayTest, DiscerningNegativeRoundTripsThroughReplay) {
  // The schedule must contain the crash that destroys the TAS evidence.
  CheckRequest request;
  request.system = make_halting_tas_system();
  request.budget.crash_budget = 1;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  bool has_crash_event = false;
  for (const sim::ScheduleEvent& event : report.violation->schedule) {
    has_crash_event =
        has_crash_event || event.kind == sim::ScheduleEvent::Kind::kCrash;
  }
  EXPECT_TRUE(has_crash_event) << report.violation->trace();

  round_trip(make_halting_tas_system(), make_halting_tas_system(), 1,
             Strategy::kSequentialDFS, "agreement");
}

TEST(ViolationReplayTest, RegisterRaceRoundTripsThroughReplay) {
  round_trip(make_register_race_system(), make_register_race_system(), 0,
             Strategy::kSequentialDFS, "agreement");
}

TEST(ViolationReplayTest, ParallelEngineViolationRoundTripsToo) {
  // The parallel engine reports the lexicographically lowest violating
  // schedule; it must replay just as deterministically.
  round_trip(make_register_race_system(), make_register_race_system(), 0,
             Strategy::kParallelBFS, "agreement");
}

TEST(ViolationReplayTest, ValidityViolationRoundTripsWithValiditySet) {
  ScenarioSystem make;
  make.processes.emplace_back(ConstantDecider{99});
  make.properties.valid_outputs = {1, 2};
  ScenarioSystem again;
  again.processes.emplace_back(ConstantDecider{99});
  again.properties.valid_outputs = {1, 2};
  round_trip(std::move(make), std::move(again), 0, Strategy::kSequentialDFS,
             "validity");
}

TEST(ViolationReplayTest, WaitFreedomViolationRoundTripsWithSameBudget) {
  // A program that never decides trips the per-run step bound; replaying its
  // schedule under the same budget must trip the same bound.
  auto make_looper_system = [] {
    ScenarioSystem out;
    const sim::RegId reg = out.memory.add_register();
    out.processes.emplace_back(Looper{reg, 0});
    return out;
  };

  CheckRequest find;
  find.system = make_looper_system();
  find.budget.crash_budget = 0;
  find.budget.max_steps_per_run = 10;
  find.strategy = Strategy::kSequentialDFS;
  const CheckReport found = check(std::move(find));
  ASSERT_FALSE(found.clean);
  ASSERT_NE(found.violation->description.find("wait-freedom"), std::string::npos);

  CheckRequest replay_request;
  replay_request.system = make_looper_system();
  replay_request.budget.max_steps_per_run = 10;
  replay_request.strategy = Strategy::kReplay;
  replay_request.schedule = found.violation->schedule;
  const CheckReport replayed = check(std::move(replay_request));
  ASSERT_FALSE(replayed.clean);
  EXPECT_NE(replayed.violation->description.find("wait-freedom"), std::string::npos);
}

TEST(ViolationReplayTest, FacadeReplayStrategyReproducesToo) {
  // The same round-trip, entirely through check(): find with kSequentialDFS,
  // reproduce with kReplay.
  CheckRequest find;
  find.system = make_register_race_system();
  find.budget.crash_budget = 0;
  find.strategy = Strategy::kSequentialDFS;
  const CheckReport found = check(std::move(find));
  ASSERT_FALSE(found.clean);

  CheckRequest replay_request;
  replay_request.system = make_register_race_system();
  replay_request.budget.crash_budget = 0;
  replay_request.strategy = Strategy::kReplay;
  replay_request.schedule = found.violation->schedule;
  const CheckReport replayed = check(std::move(replay_request));
  ASSERT_FALSE(replayed.clean);
  EXPECT_NE(replayed.violation->description.find("agreement"), std::string::npos);
  EXPECT_EQ(replayed.violation->schedule, found.violation->schedule);
}

TEST(ViolationReplayTest, ReplayRejectsEventsTheModelDoesNotAllow) {
  // One legality rule: replay takes an event iff engine::enumerate_events
  // produces it at the node reached so far. Each file below parses (the
  // parser checks syntax only) and holds one event its scenario does not
  // allow. Replay stops there and reports the event's index, both directly
  // and through check()'s kReplay, instead of reproducing a violation or
  // aborting.
  const struct {
    const char* what;
    const char* text;
    std::size_t rejected;
  } cases[] = {
      {"out-of-range process",
       "scenario type=register algo=naive-register n=2 budget=0\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "step 7\n",
       1},
      {"step of a decided process",
       "scenario type=register algo=naive-register n=2 budget=0\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "step 0\n"
       "step 0\n",
       2},
      {"crash over budget",
       "scenario type=test-and-set n=2 model=independent budget=0 algo=halting\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "crash 0\n",
       1},
      {"crash under model=simultaneous",
       "scenario type=test-and-set n=2 model=simultaneous budget=1 algo=halting\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "crash 0\n",
       1},
      {"crash-all under model=independent",
       "scenario type=test-and-set n=2 model=independent budget=1 algo=halting\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "crash-all\n",
       1},
      {"crash of a process that has not stepped in its run",
       "scenario type=test-and-set n=2 model=independent budget=1 algo=halting\n"
       "property agreement\n"
       "description agreement violated: x\n"
       "step 0\n"
       "crash 1\n",
       1},
  };
  for (const auto& input : cases) {
    SCOPED_TRACE(input.what);
    const ViolationParse parse = parse_violation_file(input.text);
    ASSERT_TRUE(parse.ok()) << parse.errors.front();
    const ViolationFile& file = *parse.file;

    const ScenarioSystem system = build_spec_system(file.scenario);
    const sim::ReplayReport replayed =
        sim::replay(system.memory, system.processes, file.schedule, system.properties,
                    file.scenario.budget());
    EXPECT_EQ(replayed.rejected, input.rejected);
    EXPECT_FALSE(replayed.violation.has_value());

    CheckRequest request;
    request.system = build_spec_system(file.scenario);
    request.budget = file.scenario.budget();
    request.strategy = Strategy::kReplay;
    request.schedule = file.schedule;
    const CheckReport report = check(std::move(request));
    EXPECT_EQ(report.rejected, input.rejected);
    EXPECT_FALSE(report.violation.has_value());
  }
}

}  // namespace
}  // namespace rcons::check
