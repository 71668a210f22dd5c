// Classic read-modify-write types used throughout the consensus-hierarchy
// literature. Each is given by its sequential specification; expected
// discerning/recording numbers are asserted in tests/hierarchy/.
#ifndef RCONS_TYPESYS_TYPES_RMW_HPP
#define RCONS_TYPESYS_TYPES_RMW_HPP

#include "typesys/object_type.hpp"

namespace rcons::typesys {

// State: {bit}. One operation TestAndSet: returns the old bit, sets it to 1.
// cons = 2 (Herlihy). The post-update state is always {1}, so the state
// records nothing about who updated first: not 2-recording.
class TestAndSetType final : public ObjectType {
 public:
  std::string name() const override { return "test-and-set"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {counter}. FetchAndIncrement returns the old counter value.
// cons = 2; the state only counts operations (commutative), so not 2-recording.
class FetchAndIncrementType final : public ObjectType {
 public:
  std::string name() const override { return "fetch-and-increment"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {value}. Swap(v) returns the old value and installs v.
// cons = 2; the final state is the last swapped value (overwriting), so the
// state forgets the first updater: not 2-recording.
class SwapType final : public ObjectType {
 public:
  std::string name() const override { return "swap"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {value}. CompareAndSwap(expected=⊥, v): installs v if the current
// value is ⊥ and returns the old value. cons = ∞, and the first successful
// CAS is recorded in the state forever: n-recording for every n, hence
// rcons = ∞ as well (the paper's headline "RC is no harder" witness).
class CompareAndSwapType final : public ObjectType {
 public:
  std::string name() const override { return "compare-and-swap"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {value ∈ {⊥,0,1}}. Stick(v): if unset, sets to v; always returns the
// (possibly just-set) stored value. cons = rcons = ∞.
class StickyBitType final : public ObjectType {
 public:
  std::string name() const override { return "sticky-bit"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {decision}. Propose(v): decides v if undecided; returns the decision.
// The idealized consensus object; cons = rcons = ∞.
class ConsensusObjectType final : public ObjectType {
 public:
  std::string name() const override { return "consensus-object"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {count}. Increment returns ack. Commutative and response-free:
// cons = rcons = 1.
class CounterType final : public ObjectType {
 public:
  std::string name() const override { return "counter"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

// State: {max}. WriteMax(v) returns ack. Commutative: cons = rcons = 1.
class MaxRegisterType final : public ObjectType {
 public:
  std::string name() const override { return "max-register"; }
  bool readable() const override { return true; }
  std::vector<Operation> operations(int n) const override;
  std::vector<StateRepr> initial_states(int n) const override;
  Transition apply(const StateRepr& state, const Operation& op) const override;
};

}  // namespace rcons::typesys

#endif  // RCONS_TYPESYS_TYPES_RMW_HPP
