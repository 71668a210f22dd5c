#include "sim/process.hpp"

#include <gtest/gtest.h>

namespace rcons::sim {
namespace {

// A counting program: increments a register `limit` times, then decides its
// final read.
struct CountingProgram {
  RegId reg = 0;
  int limit = 3;
  int steps_done = 0;

  StepResult step(Memory& memory) {
    if (steps_done < limit) {
      memory.write(reg, memory.read(reg) + 1);
      steps_done += 1;
      return StepResult::running();
    }
    return StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(steps_done); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    steps_done = static_cast<int>(data[0]);
    return 1;
  }
};

TEST(ProcessTest, RunsToDecision) {
  Memory memory;
  const RegId reg = memory.add_register(0);
  Process process{CountingProgram{reg, 3, 0}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(process.step(memory).kind, StepResult::Kind::kRunning);
  }
  const StepResult result = process.step(memory);
  ASSERT_EQ(result.kind, StepResult::Kind::kDecided);
  EXPECT_EQ(result.decision, 3);
}

TEST(ProcessTest, ResetRestoresInitialLocalStateOnly) {
  Memory memory;
  const RegId reg = memory.add_register(0);
  Process process{CountingProgram{reg, 2, 0}};
  process.step(memory);
  process.step(memory);
  process.reset();  // crash: locals gone, register (shared NVRAM) keeps 2
  EXPECT_EQ(memory.read(reg), 2);
  process.step(memory);
  process.step(memory);
  const StepResult result = process.step(memory);
  ASSERT_EQ(result.kind, StepResult::Kind::kDecided);
  EXPECT_EQ(result.decision, 4);  // 2 pre-crash + 2 post-recovery increments
}

TEST(ProcessTest, CopyIsIndependent) {
  Memory memory;
  const RegId reg = memory.add_register(0);
  Process a{CountingProgram{reg, 2, 0}};
  a.step(memory);
  Process b = a;  // copy mid-run
  a.step(memory);
  // b still has one increment to go.
  std::vector<typesys::Value> ea, eb;
  a.encode(ea);
  b.encode(eb);
  EXPECT_NE(ea, eb);
}

TEST(ProcessTest, EncodeReflectsLocalState) {
  Memory memory;
  const RegId reg = memory.add_register(0);
  Process process{CountingProgram{reg, 2, 0}};
  std::vector<typesys::Value> before, after, reset;
  process.encode(before);
  process.step(memory);
  process.encode(after);
  EXPECT_NE(before, after);
  process.reset();
  process.encode(reset);
  EXPECT_EQ(before, reset);
}

}  // namespace
}  // namespace rcons::sim
