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
  // p0 writes+reads (decides 1); then p1 writes+reads (decides 2).
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(0),
                              ScheduleEvent::step(1), ScheduleEvent::step(1)});
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.outputs.size(), 2u);
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
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::crash_all(),
                              ScheduleEvent::step(1), ScheduleEvent::step(1),
                              ScheduleEvent::step(0), ScheduleEvent::step(0)});
  // After the crash p1 writes 2 then reads... p0 re-writes 1 then reads 1.
  ASSERT_TRUE(report.decisions[1].has_value());
  EXPECT_EQ(report.outputs.front(), *report.decisions[1]);
}

TEST(ReplayTest, StepOnDecidedProcessIsIgnored) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(WriteThenReadProgram{reg, 1, 0});
  const auto report = replay(std::move(memory), std::move(processes),
                             {ScheduleEvent::step(0), ScheduleEvent::step(0),
                              ScheduleEvent::step(0), ScheduleEvent::step(0)});
  EXPECT_EQ(report.outputs.size(), 1u);
}

}  // namespace
}  // namespace rcons::sim
