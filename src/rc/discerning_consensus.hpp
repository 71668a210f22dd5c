// Wait-free consensus from an n-discerning readable type in the HALTING
// failure model — Ruppert's construction behind Theorem 3, which the paper
// uses as its baseline notion of "consensus is solvable".
//
// Each process writes its input to its team's register, applies its witness
// operation to the shared object, then reads the object's state and decides
// based on whether (its operation's response, the observed state) lies in
// R_{A,i} or R_{B,i} — disjoint by Definition 2.
//
// This algorithm is deliberately NOT crash-safe: a crashed process loses its
// operation's response and may apply its operation twice on re-run,
// destroying the evidence. The tests demonstrate exactly this failure under
// independent crashes (the gap the paper's n-recording property closes).
#ifndef RCONS_RC_DISCERNING_CONSENSUS_HPP
#define RCONS_RC_DISCERNING_CONSENSUS_HPP

#include <memory>
#include <vector>

#include "hierarchy/discerning.hpp"
#include "hierarchy/qsets.hpp"
#include "rc/staged.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"

namespace rcons::rc {

struct DiscerningPlan {
  std::shared_ptr<typesys::TransitionCache> cache;
  typesys::StateId q0 = typesys::kNoState;
  std::vector<int> team;
  std::vector<typesys::OpId> ops;
  // R_{A, role} per role; the deciding test is membership of (resp, state).
  std::vector<hierarchy::RespStateSet> r_a_by_role;
  int team_size[2] = {0, 0};

  int n() const { return static_cast<int>(team.size()); }

  static std::shared_ptr<const DiscerningPlan> create(
      std::shared_ptr<typesys::TransitionCache> cache,
      const hierarchy::DiscerningWitness& witness);
};

struct DiscerningInstance {
  std::shared_ptr<const DiscerningPlan> plan;
  sim::ObjId obj = -1;
  sim::RegId reg_a = -1;
  sim::RegId reg_b = -1;
};

DiscerningInstance install_discerning(sim::Memory& memory,
                                      std::shared_ptr<const DiscerningPlan> plan);

class DiscerningConsensusProgram {
 public:
  DiscerningConsensusProgram(DiscerningInstance instance, int role,
                             typesys::Value input);

  sim::StepResult step(sim::Memory& memory);
  void encode(std::vector<typesys::Value>& out) const;
  std::size_t decode(const typesys::Value* data, std::size_t size);

 private:
  DiscerningInstance instance_;
  int role_;
  typesys::Value input_;
  int pc_ = 0;
  typesys::Value response_ = 0;
  typesys::Value q_ = 0;
};

using HaltingTournamentProgram =
    StagedProgram<DiscerningConsensusProgram, DiscerningInstance>;

struct HaltingConsensusSystem {
  std::shared_ptr<const DiscerningPlan> plan;
  sim::Memory memory;
  std::vector<sim::Process> processes;

  // Symmetry declaration (staged_symmetry_classes over the tournament
  // chains): behaviorally identical participants — equal input and
  // stage-wise equal (instance, team, op) — share a class. The binary
  // tournament makes these all-singleton (siblings split onto opposite
  // teams), so attaching it is sound but reduces nothing; `symmetry=on` in a
  // spec is honored uniformly regardless.
  std::vector<int> symmetry_classes;
};

// Full consensus (halting model) for inputs.size() ≤ witness_n processes via
// tournament over the discerning team algorithm. The system's transition
// cache shares ownership of `type`, so the caller may drop its handle.
HaltingConsensusSystem make_halting_consensus(std::shared_ptr<const typesys::ObjectType> type,
                                              int witness_n,
                                              const std::vector<typesys::Value>& inputs);

}  // namespace rcons::rc

#endif  // RCONS_RC_DISCERNING_CONSENSUS_HPP
