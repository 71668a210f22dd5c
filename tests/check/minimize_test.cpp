// check::minimize — greedy event deletion against sim::replay. A minimized
// schedule must still reproduce the same typed property on a pristine system,
// be no longer than the original, and be 1-minimal (dropping any single event
// breaks reproduction).
#include "check/minimize.hpp"

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "rc/naive_register.hpp"
#include "sim/replay.hpp"
#include "typesys/zoo.hpp"

namespace rcons::check {
namespace {

ScenarioSystem naive_register_system(int n) {
  rc::NaiveRegisterSystem built = rc::make_naive_register_system(n);
  ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = std::move(built.inputs);
  return system;
}

TEST(MinimizeTest, ShrinksAPaddedScheduleToAMinimalOne) {
  // Find a real violation, then pad its schedule with redundant events the
  // minimizer must strip again.
  CheckRequest request;
  request.system = naive_register_system(2);
  request.budget.crash_budget = 0;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport found = check(std::move(request));
  ASSERT_FALSE(found.clean);
  ASSERT_EQ(found.violation->property, sim::PropertyKind::kAgreement);

  // Depth-first order: p0 writes and decides 1, then p1 writes and decides 2.
  const std::vector<sim::ScheduleEvent> race = {
      sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(0),
      sim::ScheduleEvent::step(1), sim::ScheduleEvent::step(1)};
  ASSERT_EQ(found.violation->schedule, race);

  // Redundant but legal padding: p0 crashes after deciding (its output
  // stands) and re-writes its input before p1 runs.
  sim::Violation padded = *found.violation;
  padded.schedule.insert(padded.schedule.begin() + 2,
                         {sim::ScheduleEvent::crash(0), sim::ScheduleEvent::step(0)});

  Budget budget;
  budget.crash_budget = 1;
  const ScenarioSystem pristine = naive_register_system(2);
  const MinimizeResult result = minimize(pristine, budget, padded);

  EXPECT_EQ(result.original_events, padded.schedule.size());
  EXPECT_LT(result.violation.schedule.size(), padded.schedule.size());
  EXPECT_EQ(result.removed_events,
            padded.schedule.size() - result.violation.schedule.size());
  EXPECT_GT(result.replays, 1);
  EXPECT_EQ(result.violation.property, sim::PropertyKind::kAgreement);

  // Still reproduces on a pristine copy, with the same typed property.
  const ScenarioSystem again = naive_register_system(2);
  const sim::ReplayReport replayed = sim::replay(
      again.memory, again.processes, result.violation.schedule, again.properties, budget);
  ASSERT_TRUE(replayed.violation.has_value());
  EXPECT_EQ(replayed.violation->property, sim::PropertyKind::kAgreement);

  // 1-minimal: deleting any single remaining event stops reproduction.
  for (std::size_t i = 0; i < result.violation.schedule.size(); ++i) {
    std::vector<sim::ScheduleEvent> shorter = result.violation.schedule;
    shorter.erase(shorter.begin() + static_cast<std::ptrdiff_t>(i));
    const ScenarioSystem copy = naive_register_system(2);
    const sim::ReplayReport report =
        sim::replay(copy.memory, copy.processes, shorter, copy.properties, budget);
    EXPECT_FALSE(report.violation.has_value() &&
                 report.violation->property == sim::PropertyKind::kAgreement)
        << "schedule not 1-minimal: event " << i << " is deletable";
  }

  // The register race needs exactly: two writes, then two conflicting reads.
  EXPECT_EQ(result.violation.schedule.size(), 4u);
}

TEST(MinimizeTest, AlreadyMinimalScheduleIsUnchanged) {
  // p0 writes and decides its own input before p1 writes; p1 then decides
  // its own — the shortest register-race agreement violation.
  const std::vector<sim::ScheduleEvent> minimal = {
      sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(0),
      sim::ScheduleEvent::step(1), sim::ScheduleEvent::step(1)};
  const ScenarioSystem pristine = naive_register_system(2);
  const sim::ReplayReport direct =
      sim::replay(pristine.memory, pristine.processes, minimal, pristine.properties);
  ASSERT_TRUE(direct.violation.has_value());

  Budget budget;
  const MinimizeResult result = minimize(
      pristine, budget,
      sim::Violation{direct.violation->description, direct.violation->property,
                     direct.violation->param, minimal});
  EXPECT_EQ(result.violation.schedule, minimal);
  EXPECT_EQ(result.removed_events, 0u);
}

TEST(MinimizeTest, NonReproducingViolationIsReturnedUnchanged) {
  // A schedule that replays clean (e.g. from a symmetry-reduced search, or a
  // truncation marker) must pass through untouched.
  const ScenarioSystem pristine = naive_register_system(2);
  sim::Violation bogus{"agreement violated: fabricated",
                       sim::PropertyKind::kAgreement,
                       1,
                       {sim::ScheduleEvent::step(0)}};
  Budget budget;
  const MinimizeResult result = minimize(pristine, budget, bogus);
  EXPECT_EQ(result.violation.schedule, bogus.schedule);
  EXPECT_EQ(result.removed_events, 0u);
  EXPECT_EQ(result.replays, 1);

  sim::Violation truncation{"state space exceeded max_visited; verdict incomplete",
                            sim::PropertyKind::kNone,
                            0,
                            {sim::ScheduleEvent::step(0)}};
  const MinimizeResult untouched = minimize(pristine, budget, truncation);
  EXPECT_EQ(untouched.violation.schedule, truncation.schedule);
  EXPECT_EQ(untouched.replays, 0);
}

}  // namespace
}  // namespace rcons::check
