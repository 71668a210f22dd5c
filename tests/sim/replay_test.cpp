#include "sim/replay.hpp"

#include <gtest/gtest.h>

namespace rcons::sim {
namespace {

struct WriteThenReadProgram {
  RegId reg = 0;
  typesys::Value input = 0;
  int pc = 0;
  StepResult step(Memory& memory) {
    if (pc == 0) {
      memory.write(reg, input);
      pc = 1;
      return StepResult::running();
    }
    return StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(pc); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    return 1;
  }
};

TEST(ReplayTest, RunsScriptedSchedule) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  processes.emplace_back(WriteThenReadProgram{reg, 2, 0});
  // p0 writes, p1 writes, p0 reads (sees 2), p1 reads (sees 2): agreement.
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(1),
                              ScheduleEvent::step(0), ScheduleEvent::step(1)});
  EXPECT_FALSE(report.violation.has_value());
  ASSERT_TRUE(report.decisions[0].has_value());
  EXPECT_EQ(*report.decisions[0], 2);
  EXPECT_EQ(*report.decisions[1], 2);
}

TEST(ReplayTest, DetectsScriptedAgreementViolation) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  processes.emplace_back(WriteThenReadProgram{reg, 2, 0});
  // p0 writes+reads (decides 1); then p1 writes+reads (decides 2). Replay
  // stops there: the violating decision is an output, and the out-of-range
  // event after it is never reached.
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(0),
                              ScheduleEvent::step(1), ScheduleEvent::step(1),
                              ScheduleEvent::step(7)});
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.violation->property, PropertyKind::kAgreement);
  EXPECT_EQ(report.outputs, (std::vector<typesys::Value>{1, 2}));
  EXPECT_FALSE(report.rejected.has_value());
}

TEST(ReplayTest, CrashResetsRunAndDecision) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(0),
                              ScheduleEvent::crash(0), ScheduleEvent::step(0),
                              ScheduleEvent::step(0)});
  // Decided twice (once per run), same value both times.
  EXPECT_EQ(report.outputs.size(), 2u);
  EXPECT_FALSE(report.violation.has_value());
}

TEST(ReplayTest, CrashAllResetsEveryone) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  processes.emplace_back(WriteThenReadProgram{reg, 2, 0});
  check::Budget budget;
  budget.crash_model = check::CrashModel::kSimultaneous;  // crash-all is its crash kind
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::crash_all(),
                              ScheduleEvent::step(1), ScheduleEvent::step(1),
                              ScheduleEvent::step(0), ScheduleEvent::step(0)},
                             {}, budget);
  EXPECT_FALSE(report.rejected.has_value());
  // After the crash p1 writes 2 then reads... p0 re-writes 1 then reads 1.
  ASSERT_TRUE(report.decisions[1].has_value());
  EXPECT_EQ(report.outputs.front(), *report.decisions[1]);
}

TEST(ReplayTest, StepOnDecidedProcessIsRejected) {
  // A decided process has returned: the model enables no step of it until a
  // crash, so replay stops at the first such event.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(0),
                              ScheduleEvent::step(0), ScheduleEvent::step(0)});
  EXPECT_EQ(report.outputs.size(), 1u);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_FALSE(report.violation.has_value());
}

}  // namespace
}  // namespace rcons::sim
