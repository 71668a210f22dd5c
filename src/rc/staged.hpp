// Staged (tournament) composition of two-team consensus protocols.
//
// Proposition 30 (Appendix B) reduces full (recoverable) consensus to team
// consensus: processes agree recursively inside each team, then the two
// teams' representatives run team consensus on the agreed values. The
// recursion bottoms out at singleton groups. Each process therefore executes
// a fixed chain of team-consensus stages along its leaf-to-root path, feeding
// each stage's decision into the next.
//
// The composition is itself recoverable when the inner protocol is: after a
// crash the process re-runs the chain from stage 0, and the inner agreement
// property guarantees each re-run stage re-decides the same value, so the
// inputs fed forward are stable across runs (the paper's footnote on stable
// inputs).
#ifndef RCONS_RC_STAGED_HPP
#define RCONS_RC_STAGED_HPP

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/assert.hpp"

namespace rcons::rc {

template <typename InnerInstance>
struct Stage {
  InnerInstance instance;
  int role = 0;
};

// Chains InnerProgram invocations; InnerProgram must be constructible as
// InnerProgram(InnerInstance, int role, Value input) and satisfy the step
// machine concept.
template <typename InnerProgram, typename InnerInstance>
class StagedProgram {
 public:
  StagedProgram(std::shared_ptr<const std::vector<Stage<InnerInstance>>> stages,
                typesys::Value input)
      : stages_(std::move(stages)), input_(input), value_(input) {
    RCONS_ASSERT(stages_ != nullptr);
  }

  sim::StepResult step(sim::Memory& memory) {
    if (stage_index_ >= stages_->size()) {
      // Singleton group: no stages; decide own input without memory access.
      return sim::StepResult::decided(value_);
    }
    if (!inner_.has_value()) {
      const Stage<InnerInstance>& stage = (*stages_)[stage_index_];
      inner_.emplace(stage.instance, stage.role, value_);
    }
    const sim::StepResult result = inner_->step(memory);
    if (result.kind == sim::StepResult::Kind::kDecided) {
      value_ = result.decision;
      inner_.reset();
      stage_index_ += 1;
      if (stage_index_ == stages_->size()) return sim::StepResult::decided(value_);
    }
    return sim::StepResult::running();
  }

  void encode(std::vector<typesys::Value>& out) const {
    out.push_back(static_cast<typesys::Value>(stage_index_));
    out.push_back(value_);
    out.push_back(inner_.has_value() ? 1 : 0);
    if (inner_.has_value()) inner_->encode(out);
  }

  // Inverse of encode(). A running inner is rebuilt from its stage exactly
  // as step() constructs it (value_ is unchanged while an inner runs, so the
  // reconstruction sees the same input) and then decodes its own state.
  std::size_t decode(const typesys::Value* data, std::size_t size) {
    RCONS_ASSERT_MSG(size >= 3, "truncated StagedProgram encoding");
    stage_index_ = static_cast<std::size_t>(data[0]);
    value_ = data[1];
    const bool has_inner = data[2] != 0;
    std::size_t used = 3;
    inner_.reset();
    if (has_inner) {
      RCONS_ASSERT(stage_index_ < stages_->size());
      const Stage<InnerInstance>& stage = (*stages_)[stage_index_];
      inner_.emplace(stage.instance, stage.role, value_);
      used += inner_->decode(data + used, size - used);
    }
    return used;
  }

 private:
  std::shared_ptr<const std::vector<Stage<InnerInstance>>> stages_;
  typesys::Value input_;
  // Volatile run state:
  typesys::Value value_;
  std::size_t stage_index_ = 0;
  std::optional<InnerProgram> inner_;
};

// Symmetry declaration of a staged system (ExplorerConfig::symmetry_classes):
// two processes belong to the same class iff they run *behaviorally
// identical* programs — equal inputs, and stage chains that agree
// stage-by-stage on the installed instance and on whatever `role_sig`
// appends for the stage's role (the inner-protocol data that determines a
// role's behavior, e.g. (team, op) for Figure 2 team consensus — the
// concrete step function never depends on the role index beyond that).
// Swapping the local states of two such processes maps executions to
// executions, which is exactly the invariance the explorers' canonicalizer
// exploits (engine/node_store.hpp).
//
// Binary tournaments built by build_tournament_stages always yield singleton
// classes: any two participants split at their lowest-common-ancestor node
// onto opposite teams of that node's instance, so their chains are never
// equivalent (the declaration stays sound, it just reduces nothing). *Flat*
// staged systems — many same-team roles sharing one instance, e.g.
// make_staged_team_consensus — get real reductions.
//
// `role_sig(instance, role, sig)` must append the instance identity (the
// memory it installed into) and the role's behavioral key to `sig`.
template <typename InnerInstance, typename RoleSig>
std::vector<int> staged_symmetry_classes(
    const std::vector<std::shared_ptr<const std::vector<Stage<InnerInstance>>>>&
        chains,
    const std::vector<typesys::Value>& inputs, RoleSig&& role_sig) {
  RCONS_ASSERT(chains.size() == inputs.size());
  std::map<std::vector<typesys::Value>, int> classes;
  std::vector<int> result;
  std::vector<typesys::Value> sig;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    sig.clear();
    sig.push_back(inputs[i]);
    RCONS_ASSERT(chains[i] != nullptr);
    for (const Stage<InnerInstance>& stage : *chains[i]) {
      role_sig(stage.instance, stage.role, sig);
    }
    const auto [it, unused] =
        classes.emplace(sig, static_cast<int>(classes.size()));
    result.push_back(it->second);
  }
  return result;
}

// The role signature shared by the repository's team-style inner protocols
// (TeamConsensusInstance, DiscerningInstance — anything exposing
// obj/reg_a/reg_b and a plan with team/ops): the instance's memory identity
// plus the role's (team, op), which is the only role data those programs'
// behavior depends on (for the discerning protocol, R_{A,role} is itself
// determined by the (team, op) class — see DiscerningPlan::create).
template <typename InnerInstance>
void team_op_role_sig(const InnerInstance& instance, int role,
                      std::vector<typesys::Value>& sig) {
  const auto idx = static_cast<std::size_t>(role);
  sig.push_back(instance.obj);
  sig.push_back(instance.reg_a);
  sig.push_back(instance.reg_b);
  sig.push_back(instance.plan->team[idx]);
  sig.push_back(static_cast<typesys::Value>(instance.plan->ops[idx]));
}

// Builds the tournament stage lists for `k` participants over an inner
// protocol whose witness partitions `role_teams.size()` processes into teams
// given by role_teams (0 = A, 1 = B). `install()` allocates a fresh inner
// instance for each tree node (capturing whatever memory it installs into).
// Returns one stage chain per participant, ordered leaf-to-root.
template <typename InnerInstance, typename Installer>
std::vector<std::vector<Stage<InnerInstance>>> build_tournament_stages(
    int k, const std::vector<int>& role_teams, Installer&& install) {
  RCONS_ASSERT(k >= 1);
  std::vector<int> a_roles;
  std::vector<int> b_roles;
  for (std::size_t r = 0; r < role_teams.size(); ++r) {
    (role_teams[r] == 0 ? a_roles : b_roles).push_back(static_cast<int>(r));
  }
  RCONS_ASSERT(!a_roles.empty() && !b_roles.empty());
  RCONS_ASSERT(k <= static_cast<int>(role_teams.size()));

  std::vector<std::vector<Stage<InnerInstance>>> stages(static_cast<std::size_t>(k));

  // Recursive splitting; participants are [first, first + size).
  auto build = [&](auto&& self, int first, int size) -> void {
    if (size <= 1) return;
    const int a_cap = static_cast<int>(a_roles.size());
    const int b_cap = static_cast<int>(b_roles.size());
    int a = std::max(1, size - b_cap);
    a = std::min({a, a_cap, size - 1});
    self(self, first, a);
    self(self, first + a, size - a);

    const InnerInstance instance = install();
    for (int i = 0; i < a; ++i) {
      stages[static_cast<std::size_t>(first + i)].push_back(
          Stage<InnerInstance>{instance, a_roles[static_cast<std::size_t>(i)]});
    }
    for (int i = 0; i < size - a; ++i) {
      stages[static_cast<std::size_t>(first + a + i)].push_back(
          Stage<InnerInstance>{instance, b_roles[static_cast<std::size_t>(i)]});
    }
  };
  build(build, 0, k);
  return stages;
}

}  // namespace rcons::rc

#endif  // RCONS_RC_STAGED_HPP
