#include "rc/team_consensus.hpp"

#include <map>
#include <utility>

#include "hierarchy/qsets.hpp"
#include "util/assert.hpp"

namespace rcons::rc {

using sim::Memory;
using sim::StepResult;
using typesys::Value;

StateFlags::StateFlags(const std::unordered_set<typesys::StateId>& states) {
  for (const typesys::StateId state : states) {
    RCONS_ASSERT(state >= 0);
    const auto index = static_cast<std::size_t>(state);
    if (index >= flags_.size()) flags_.resize(index + 1, 0);
    flags_[index] = 1;
  }
}

std::shared_ptr<const TeamConsensusPlan> TeamConsensusPlan::create(
    std::shared_ptr<typesys::TransitionCache> cache,
    const hierarchy::RecordingWitness& witness) {
  RCONS_ASSERT(cache != nullptr);
  auto plan = std::make_shared<TeamConsensusPlan>();
  plan->cache = std::move(cache);
  plan->q0 = witness.q0;
  plan->team = witness.team;
  plan->ops = witness.ops;

  // Figure 2 assumes q0 ∉ Q_B; otherwise the paper swaps the team names.
  // (Condition 1 of Definition 4 rules out q0 being in both sets.)
  const bool swap = witness.q_b.contains(witness.q0);
  RCONS_ASSERT(!(swap && witness.q_a.contains(witness.q0)));
  plan->swapped = swap;
  if (swap) {
    for (int& t : plan->team) t = 1 - t;
    plan->q_a = StateFlags(witness.q_b);
  } else {
    plan->q_a = StateFlags(witness.q_a);
  }
  for (const int t : plan->team) plan->team_size[t] += 1;
  RCONS_ASSERT(plan->team_size[0] >= 1 && plan->team_size[1] >= 1);
  return plan;
}

TeamConsensusInstance install_team_consensus(
    Memory& memory, std::shared_ptr<const TeamConsensusPlan> plan) {
  RCONS_ASSERT(plan != nullptr);
  TeamConsensusInstance instance;
  instance.obj = memory.add_object(
      std::shared_ptr<typesys::TransitionCache>(plan, plan->cache.get()), plan->q0);
  instance.reg_a = memory.add_register(typesys::kBottom);
  instance.reg_b = memory.add_register(typesys::kBottom);
  instance.plan = std::move(plan);
  return instance;
}

TeamConsensusProgram::TeamConsensusProgram(TeamConsensusInstance instance, int role,
                                           Value input)
    : instance_(std::move(instance)), role_(role), input_(input) {
  RCONS_ASSERT(instance_.plan != nullptr);
  RCONS_ASSERT(role_ >= 0 && role_ < instance_.plan->n());
}

StepResult TeamConsensusProgram::step(Memory& memory) {
  const TeamConsensusPlan& plan = *instance_.plan;
  const bool on_team_a = plan.team[static_cast<std::size_t>(role_)] == hierarchy::kTeamA;
  const typesys::OpId my_op = plan.ops[static_cast<std::size_t>(role_)];

  // Program counters; each case performs exactly one shared-memory access.
  // Local control decisions are folded into the step that performs the access.
  enum : int {
    kAnnounce = 0,   // write input to my team's register
    kFirstRead = 1,  // q ← O
    kDefer = 2,      // team B, |B| = 1: read R_A; return it unless ⊥
    kUpdate = 3,     // apply op_i to O
    kSecondRead = 4, // q ← O
    kDecide = 5,     // read the winning team's register and return it
  };
  switch (pc_) {
    case kAnnounce:
      memory.write(on_team_a ? instance_.reg_a : instance_.reg_b, input_);
      pc_ = kFirstRead;
      return StepResult::running();
    case kFirstRead: {
      q_ = memory.object_state(instance_.obj);
      if (q_ != plan.q0) {
        pc_ = kDecide;
      } else if (!on_team_a && plan.team_size[hierarchy::kTeamB] == 1) {
        pc_ = kDefer;
      } else {
        pc_ = kUpdate;
      }
      return StepResult::running();
    }
    case kDefer: {
      const Value announced = memory.read(instance_.reg_a);
      if (announced != typesys::kBottom) return StepResult::decided(announced);
      pc_ = kUpdate;
      return StepResult::running();
    }
    case kUpdate:
      memory.apply(instance_.obj, my_op);
      pc_ = kSecondRead;
      return StepResult::running();
    case kSecondRead:
      q_ = memory.object_state(instance_.obj);
      pc_ = kDecide;
      return StepResult::running();
    case kDecide: {
      const bool a_won = plan.q_a.contains(static_cast<typesys::StateId>(q_));
      return StepResult::decided(memory.read(a_won ? instance_.reg_a : instance_.reg_b));
    }
    default:
      RCONS_ASSERT_MSG(false, "invalid program counter");
      return StepResult::running();
  }
}

void TeamConsensusProgram::encode(std::vector<Value>& out) const {
  out.push_back(pc_);
  out.push_back(q_);
}

std::size_t TeamConsensusProgram::decode(const Value* data, std::size_t size) {
  RCONS_ASSERT_MSG(size >= 2, "truncated TeamConsensusProgram encoding");
  pc_ = static_cast<int>(data[0]);
  q_ = data[1];
  return 2;
}

TeamConsensusSystem make_team_consensus_system(const typesys::ObjectType& type, int n,
                                               Value input_a, Value input_b) {
  auto cache = std::make_shared<typesys::TransitionCache>(type, n);
  auto witness = hierarchy::find_recording_witness(*cache);
  RCONS_ASSERT_MSG(witness.has_value(), "type is not n-recording");
  auto plan = TeamConsensusPlan::create(cache, *witness);

  TeamConsensusSystem system;
  system.plan = plan;
  const TeamConsensusInstance instance = install_team_consensus(system.memory, plan);
  // Dense class ids per distinct (team, op): roles sharing both run the same
  // program on the same input, i.e. they are interchangeable.
  std::map<std::pair<int, typesys::OpId>, int> class_ids;
  for (int role = 0; role < plan->n(); ++role) {
    const auto idx = static_cast<std::size_t>(role);
    const Value input = plan->team[idx] == hierarchy::kTeamA ? input_a : input_b;
    system.inputs.push_back(input);
    system.processes.emplace_back(TeamConsensusProgram(instance, role, input));
    const auto key = std::make_pair(plan->team[idx], plan->ops[idx]);
    const auto [it, unused] =
        class_ids.emplace(key, static_cast<int>(class_ids.size()));
    system.symmetry_classes.push_back(it->second);
  }
  return system;
}

}  // namespace rcons::rc
