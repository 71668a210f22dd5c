#include "rc/discerning_consensus.hpp"

#include <utility>

#include "util/assert.hpp"

namespace rcons::rc {

using sim::Memory;
using sim::StepResult;
using typesys::Value;

std::shared_ptr<const DiscerningPlan> DiscerningPlan::create(
    std::shared_ptr<typesys::TransitionCache> cache,
    const hierarchy::DiscerningWitness& witness) {
  RCONS_ASSERT(cache != nullptr);
  auto plan = std::make_shared<DiscerningPlan>();
  plan->cache = cache;
  plan->q0 = witness.q0;
  witness.assignment.expand(plan->team, plan->ops);
  for (const int t : plan->team) plan->team_size[t] += 1;

  // R_{A,j} is identical for all j in the same (team, op) class; compute per
  // class and fan out to roles.
  std::size_t role = 0;
  for (std::size_t c = 0; c < witness.assignment.classes.size(); ++c) {
    const auto r_a = hierarchy::r_set_pairs(*cache, witness.q0, witness.assignment, c,
                                            hierarchy::kTeamA);
    for (int i = 0; i < witness.assignment.classes[c].count; ++i) {
      plan->r_a_by_role.push_back(r_a);
      role += 1;
    }
  }
  RCONS_ASSERT(role == plan->team.size());
  return plan;
}

DiscerningInstance install_discerning(Memory& memory,
                                      std::shared_ptr<const DiscerningPlan> plan) {
  RCONS_ASSERT(plan != nullptr);
  DiscerningInstance instance;
  instance.obj = memory.add_object(
      std::shared_ptr<typesys::TransitionCache>(plan, plan->cache.get()), plan->q0);
  instance.reg_a = memory.add_register(typesys::kBottom);
  instance.reg_b = memory.add_register(typesys::kBottom);
  instance.plan = std::move(plan);
  return instance;
}

DiscerningConsensusProgram::DiscerningConsensusProgram(DiscerningInstance instance,
                                                       int role, Value input)
    : instance_(std::move(instance)), role_(role), input_(input) {
  RCONS_ASSERT(instance_.plan != nullptr);
  RCONS_ASSERT(role_ >= 0 && role_ < instance_.plan->n());
}

StepResult DiscerningConsensusProgram::step(Memory& memory) {
  const DiscerningPlan& plan = *instance_.plan;
  const bool on_team_a = plan.team[static_cast<std::size_t>(role_)] == hierarchy::kTeamA;
  enum : int { kAnnounce = 0, kUpdate = 1, kRead = 2, kDecide = 3 };
  switch (pc_) {
    case kAnnounce:
      memory.write(on_team_a ? instance_.reg_a : instance_.reg_b, input_);
      pc_ = kUpdate;
      return StepResult::running();
    case kUpdate:
      response_ = memory.apply(instance_.obj, plan.ops[static_cast<std::size_t>(role_)]);
      pc_ = kRead;
      return StepResult::running();
    case kRead:
      q_ = memory.object_state(instance_.obj);
      pc_ = kDecide;
      return StepResult::running();
    case kDecide: {
      const bool a_won = plan.r_a_by_role[static_cast<std::size_t>(role_)].contains(
          hierarchy::RespState{response_, static_cast<typesys::StateId>(q_)});
      return StepResult::decided(memory.read(a_won ? instance_.reg_a : instance_.reg_b));
    }
    default:
      RCONS_ASSERT_MSG(false, "invalid program counter");
      return StepResult::running();
  }
}

void DiscerningConsensusProgram::encode(std::vector<Value>& out) const {
  out.push_back(pc_);
  out.push_back(response_);
  out.push_back(q_);
}

std::size_t DiscerningConsensusProgram::decode(const Value* data, std::size_t size) {
  RCONS_ASSERT_MSG(size >= 3, "truncated DiscerningConsensusProgram encoding");
  pc_ = static_cast<int>(data[0]);
  response_ = data[1];
  q_ = data[2];
  return 3;
}

HaltingConsensusSystem make_halting_consensus(std::shared_ptr<const typesys::ObjectType> type,
                                              int witness_n,
                                              const std::vector<Value>& inputs) {
  RCONS_ASSERT(!inputs.empty());
  RCONS_ASSERT(static_cast<int>(inputs.size()) <= witness_n);
  RCONS_ASSERT(type != nullptr);
  auto cache = std::make_shared<typesys::TransitionCache>(std::move(type), witness_n);
  auto witness = hierarchy::find_discerning_witness(*cache);
  RCONS_ASSERT_MSG(witness.has_value(), "type is not witness_n-discerning");
  auto plan = DiscerningPlan::create(cache, *witness);

  HaltingConsensusSystem system;
  system.plan = plan;
  auto install = [&]() { return install_discerning(system.memory, plan); };
  auto stages = build_tournament_stages<DiscerningInstance>(
      static_cast<int>(inputs.size()), plan->team, install);
  std::vector<std::shared_ptr<const std::vector<Stage<DiscerningInstance>>>> chains;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    chains.push_back(std::make_shared<const std::vector<Stage<DiscerningInstance>>>(
        std::move(stages[i])));
  }
  system.symmetry_classes = staged_symmetry_classes(
      chains, inputs, team_op_role_sig<DiscerningInstance>);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    system.processes.emplace_back(HaltingTournamentProgram(chains[i], inputs[i]));
  }
  return system;
}

}  // namespace rcons::rc
