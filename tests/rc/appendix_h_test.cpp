// Appendix H, behaviorally: rcons(stack) = 1 although cons(stack) = 2.
//
// Herlihy's classic 2-process consensus from a (non-readable) stack: the
// stack starts holding one token; each process announces its input and pops —
// whoever gets the token went first. The paper's Appendix H proves no
// 2-process *recoverable* consensus exists from stacks and registers. We
// reproduce both directions executably:
//
//   * halting model (no crashes): the explorer proves the algorithm correct;
//   * one crash: the explorer exhibits the Figure 8 failure — the winner
//     crashes, re-pops ⊥, and defects to the loser's value.
//
// The same demonstration runs for the queue (front token = winner).
//
// Contrast: the bare stack state machine IS n-recording for every n (pushes
// record arrival order), but the standard stack is not readable, so Theorem 8
// cannot be applied — the recording evidence is locked inside a state that
// Pop responses destroy. The readable-stack variant escapes Appendix H and is
// exercised by the Figure 2 tests.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "sim/replay.hpp"
#include "typesys/types/containers.hpp"

namespace rcons::rc {
namespace {

constexpr typesys::Value kToken = 1;

// One process of Herlihy's stack/queue 2-consensus. `remove_op` is the
// candidate op id of Pop / Dequeue.
struct TokenConsensusProgram {
  sim::ObjId obj = 0;
  sim::RegId my_reg = 0;
  sim::RegId other_reg = 0;
  typesys::OpId remove_op = 0;
  typesys::Value input = 0;
  int pc = 0;
  typesys::Value popped = 0;

  sim::StepResult step(sim::Memory& memory) {
    switch (pc) {
      case 0:
        memory.write(my_reg, input);
        pc = 1;
        return sim::StepResult::running();
      case 1:
        popped = memory.apply(obj, remove_op);
        pc = 2;
        return sim::StepResult::running();
      default:
        return sim::StepResult::decided(
            memory.read(popped == kToken ? my_reg : other_reg));
    }
  }
  void encode(std::vector<typesys::Value>& out) const {
    out.push_back(pc);
    out.push_back(popped);
  }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    popped = data[1];
    return 2;
  }
};

struct System {
  sim::Memory memory;
  std::vector<sim::Process> processes;
};

System make_token_system(bool use_queue) {
  System system;
  std::shared_ptr<const typesys::ObjectType> type;
  if (use_queue) {
    type = std::make_shared<const typesys::QueueType>(/*readable=*/false);
  } else {
    type = std::make_shared<const typesys::StackType>(/*readable=*/false);
  }
  auto cache = std::make_shared<typesys::TransitionCache>(type, 2);
  const typesys::OpId remove_op = cache->num_ops() - 1;  // Pop / Dequeue is last
  const typesys::StateId init = cache->intern({kToken});

  const sim::ObjId obj = system.memory.add_object(cache, init);
  const sim::RegId r0 = system.memory.add_register();
  const sim::RegId r1 = system.memory.add_register();
  system.processes.emplace_back(TokenConsensusProgram{obj, r0, r1, remove_op, 5, 0, 0});
  system.processes.emplace_back(TokenConsensusProgram{obj, r1, r0, remove_op, 6, 0, 0});
  return system;
}

class AppendixHTest : public ::testing::TestWithParam<bool> {};

TEST_P(AppendixHTest, TwoProcessConsensusCorrectWithoutCrashes) {
  System system = make_token_system(GetParam());
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {5, 6};
  request.budget.crash_budget = 0;
  request.strategy = check::Strategy::kAuto;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean)
      << report.violation->description << "\n  trace: " << report.violation->trace();
}

TEST_P(AppendixHTest, OneCrashBreaksAgreement) {
  System system = make_token_system(GetParam());
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {5, 6};
  request.budget.crash_budget = 1;
  request.strategy = check::Strategy::kSequentialDFS;
  const check::CheckReport report = check::check(std::move(request));
  ASSERT_FALSE(report.clean);
  EXPECT_NE(report.violation->description.find("agreement"), std::string::npos)
      << report.violation->description;
}

INSTANTIATE_TEST_SUITE_P(StackAndQueue, AppendixHTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "queue" : "stack";
                         });

TEST(AppendixHTest, CrashTraceMatchesFigure8Narrative) {
  // Pin the concrete counterexample: p0 wins the token, crashes, re-runs,
  // pops ⊥ and defects — while p1 also pops ⊥ and defects to p0.
  System system = make_token_system(false);
  const auto report = sim::replay(
      std::move(system.memory), std::move(system.processes),
      {
          sim::ScheduleEvent::step(0),  // p0 announces 5
          sim::ScheduleEvent::step(0),  // p0 pops the token (wins)
          sim::ScheduleEvent::crash(0),
          sim::ScheduleEvent::step(1),  // p1 announces 6
          sim::ScheduleEvent::step(1),  // p1 pops ⊥ (thinks it lost)
          sim::ScheduleEvent::step(1),  // p1 decides p0's value: 5
          sim::ScheduleEvent::step(0),  // p0 re-announces
          sim::ScheduleEvent::step(0),  // p0 pops ⊥ (evidence destroyed)
          sim::ScheduleEvent::step(0),  // p0 decides p1's value: 6
      });
  ASSERT_TRUE(report.violation.has_value());
  ASSERT_EQ(report.outputs.size(), 2u);
  EXPECT_EQ(report.outputs[0], 5);
  EXPECT_EQ(report.outputs[1], 6);
}

}  // namespace
}  // namespace rcons::rc
