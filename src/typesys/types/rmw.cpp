#include "typesys/types/rmw.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rcons::typesys {

// --- TestAndSet ---

std::vector<Operation> TestAndSetType::operations(int /*n*/) const {
  return {{0, 0, "TestAndSet"}};
}

std::vector<StateRepr> TestAndSetType::initial_states(int /*n*/) const {
  return {{0}, {1}};
}

Transition TestAndSetType::apply(const StateRepr& state, const Operation& /*op*/) const {
  RCONS_ASSERT(state.size() == 1);
  return Transition{{1}, state[0]};
}

// --- FetchAndIncrement ---

std::vector<Operation> FetchAndIncrementType::operations(int /*n*/) const {
  return {{0, 0, "FetchAndIncrement"}};
}

std::vector<StateRepr> FetchAndIncrementType::initial_states(int /*n*/) const {
  return {{0}};
}

Transition FetchAndIncrementType::apply(const StateRepr& state,
                                        const Operation& /*op*/) const {
  RCONS_ASSERT(state.size() == 1);
  return Transition{{state[0] + 1}, state[0]};
}

// --- Swap ---

std::vector<Operation> SwapType::operations(int n) const {
  std::vector<Operation> ops;
  for (int v = 1; v <= n; ++v) {
    ops.push_back({0, v, "Swap(" + std::to_string(v) + ")"});
  }
  return ops;
}

std::vector<StateRepr> SwapType::initial_states(int n) const {
  std::vector<StateRepr> states;
  states.push_back({kBottom});
  for (int v = 1; v <= n; ++v) states.push_back({v});
  return states;
}

Transition SwapType::apply(const StateRepr& state, const Operation& op) const {
  RCONS_ASSERT(state.size() == 1);
  return Transition{{op.arg}, state[0]};
}

// --- CompareAndSwap ---

std::vector<Operation> CompareAndSwapType::operations(int n) const {
  std::vector<Operation> ops;
  for (int v = 1; v <= n; ++v) {
    ops.push_back({0, v, "CAS(⊥," + std::to_string(v) + ")"});
  }
  return ops;
}

std::vector<StateRepr> CompareAndSwapType::initial_states(int n) const {
  std::vector<StateRepr> states;
  states.push_back({kBottom});
  for (int v = 1; v <= n; ++v) states.push_back({v});
  return states;
}

Transition CompareAndSwapType::apply(const StateRepr& state, const Operation& op) const {
  RCONS_ASSERT(state.size() == 1);
  if (state[0] == kBottom) return Transition{{op.arg}, kBottom};
  return Transition{{state[0]}, state[0]};
}

// --- StickyBit ---

std::vector<Operation> StickyBitType::operations(int /*n*/) const {
  return {{0, 0, "Stick(0)"}, {0, 1, "Stick(1)"}};
}

std::vector<StateRepr> StickyBitType::initial_states(int /*n*/) const {
  return {{kBottom}, {0}, {1}};
}

Transition StickyBitType::apply(const StateRepr& state, const Operation& op) const {
  RCONS_ASSERT(state.size() == 1);
  const Value stored = state[0] == kBottom ? op.arg : state[0];
  return Transition{{stored}, stored};
}

// --- ConsensusObject ---

std::vector<Operation> ConsensusObjectType::operations(int n) const {
  std::vector<Operation> ops;
  for (int v = 1; v <= n; ++v) {
    ops.push_back({0, v, "Propose(" + std::to_string(v) + ")"});
  }
  return ops;
}

std::vector<StateRepr> ConsensusObjectType::initial_states(int n) const {
  std::vector<StateRepr> states;
  states.push_back({kBottom});
  for (int v = 1; v <= n; ++v) states.push_back({v});
  return states;
}

Transition ConsensusObjectType::apply(const StateRepr& state, const Operation& op) const {
  RCONS_ASSERT(state.size() == 1);
  const Value decided = state[0] == kBottom ? op.arg : state[0];
  return Transition{{decided}, decided};
}

// --- Counter ---

std::vector<Operation> CounterType::operations(int /*n*/) const {
  return {{0, 0, "Increment"}};
}

std::vector<StateRepr> CounterType::initial_states(int /*n*/) const {
  return {{0}};
}

Transition CounterType::apply(const StateRepr& state, const Operation& /*op*/) const {
  RCONS_ASSERT(state.size() == 1);
  return Transition{{state[0] + 1}, kAck};
}

// --- MaxRegister ---

std::vector<Operation> MaxRegisterType::operations(int n) const {
  std::vector<Operation> ops;
  for (int v = 1; v <= n; ++v) {
    ops.push_back({0, v, "WriteMax(" + std::to_string(v) + ")"});
  }
  return ops;
}

std::vector<StateRepr> MaxRegisterType::initial_states(int /*n*/) const {
  return {{0}};
}

Transition MaxRegisterType::apply(const StateRepr& state, const Operation& op) const {
  RCONS_ASSERT(state.size() == 1);
  return Transition{{std::max(state[0], op.arg)}, kAck};
}

}  // namespace rcons::typesys
