// Recoverable team consensus from an n-recording readable type — the paper's
// Figure 2 algorithm, which proves the sufficiency direction of the
// characterization (Theorem 8).
//
// Given a type T with an n-recording witness (q0, teams A/B, ops), n
// processes solve team consensus (all of a team share one input) despite
// independent crash/recovery:
//
//   shared: object O of type T in state q0; registers R_A, R_B = ⊥
//
//   Decide(v), process p_i on team A:            (teams normalized so q0 ∉ Q_B)
//     R_A ← v
//     q ← O
//     if q = q0 then { apply op_i to O; q ← O }
//     return q ∈ Q_A ? R_A : R_B
//
//   Decide(v), process p_i on team B:
//     R_B ← v
//     q ← O
//     if q = q0 then
//       if |B| = 1 and R_A ≠ ⊥ then return R_A      // defer to team A
//       apply op_i to O; q ← O
//     return q ∈ Q_A ? R_A : R_B
#ifndef RCONS_RC_TEAM_CONSENSUS_HPP
#define RCONS_RC_TEAM_CONSENSUS_HPP

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "hierarchy/recording.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"

namespace rcons::rc {

// A set of StateIds as one flag per id. StateIds are dense
// (typesys/state_space.hpp), so membership is a bounds check and a load
// instead of a hash probe; an id past the flags, such as a state interned
// after the set was built, is not a member.
class StateFlags {
 public:
  StateFlags() = default;
  explicit StateFlags(const std::unordered_set<typesys::StateId>& states);

  bool contains(typesys::StateId state) const {
    return state >= 0 && static_cast<std::size_t>(state) < flags_.size() &&
           flags_[static_cast<std::size_t>(state)] != 0;
  }

 private:
  std::vector<std::uint8_t> flags_;
};

// Immutable, shareable description of one team-consensus protocol: the
// normalized witness (teams swapped if needed so that q0 ∉ Q_B) plus the
// materialized Q_A membership set the deciding reads test against.
struct TeamConsensusPlan {
  std::shared_ptr<typesys::TransitionCache> cache;
  typesys::StateId q0 = typesys::kNoState;
  std::vector<int> team;           // normalized team of each role
  std::vector<typesys::OpId> ops;  // op of each role
  StateFlags q_a;                  // normalized Q_A
  int team_size[2] = {0, 0};
  bool swapped = false;  // true if A/B were exchanged during normalization

  int n() const { return static_cast<int>(team.size()); }

  // Builds a plan from a recording witness found by the hierarchy checker.
  static std::shared_ptr<const TeamConsensusPlan> create(
      std::shared_ptr<typesys::TransitionCache> cache,
      const hierarchy::RecordingWitness& witness);
};

// One installed instance of the protocol: the object and the two registers.
struct TeamConsensusInstance {
  std::shared_ptr<const TeamConsensusPlan> plan;
  sim::ObjId obj = -1;
  sim::RegId reg_a = -1;
  sim::RegId reg_b = -1;
};

// Allocates the shared object (in state q0) and both registers in `memory`.
TeamConsensusInstance install_team_consensus(
    sim::Memory& memory, std::shared_ptr<const TeamConsensusPlan> plan);

// The per-process step machine (role = index into the witness's processes).
class TeamConsensusProgram {
 public:
  TeamConsensusProgram(TeamConsensusInstance instance, int role, typesys::Value input);

  sim::StepResult step(sim::Memory& memory);
  void encode(std::vector<typesys::Value>& out) const;
  std::size_t decode(const typesys::Value* data, std::size_t size);

 private:
  TeamConsensusInstance instance_;
  int role_;
  typesys::Value input_;
  // Volatile run state (lost on crash):
  int pc_ = 0;
  typesys::Value q_ = 0;  // last observed object state (StateId)
};

// Convenience builder used by tests and benches: finds an n-recording witness
// for `type` (asserting one exists), installs one instance, and creates one
// process per role with the team's input value.
struct TeamConsensusSystem {
  std::shared_ptr<const TeamConsensusPlan> plan;
  sim::Memory memory;
  std::vector<sim::Process> processes;
  std::vector<typesys::Value> inputs;  // per role, after normalization

  // Symmetry declaration: roles with the same (team, witness op) run
  // identical programs (inputs are per team), so global states are invariant
  // under permuting them — the explorers' canonicalizer consumes this
  // (ExplorerConfig::symmetry_classes). Classes are dense ints, one per
  // distinct (team, op) pair.
  std::vector<int> symmetry_classes;
};

TeamConsensusSystem make_team_consensus_system(const typesys::ObjectType& type, int n,
                                               typesys::Value input_a,
                                               typesys::Value input_b);

}  // namespace rcons::rc

#endif  // RCONS_RC_TEAM_CONSENSUS_HPP
