// (k, n)-set agreement from types too weak for n-consensus: split the n
// processes into k groups, each group independently solving *recoverable*
// consensus among its own members via the paper's Figure 2 team-consensus
// algorithm over the given type (singleton groups decide their input
// directly, without touching shared memory).
//
// Each group's Figure 2 instance guarantees within-group agreement across
// independent crashes (Theorem 8), so at most one distinct value is ever
// output per group — at most k distinct values overall. That is exactly
// k-set agreement (Chaudhuri's relaxation of consensus), which sits on the
// solvability spectrum the property layer exposes: the same system
//
//   * runs CLEAN under PropertySet {k-set-agreement(k), validity,
//     wait-freedom}, and
//   * VIOLATES plain agreement as soon as two groups with different inputs
//     both decide,
//
// a verdict class a single hardcoded consensus check cannot express. The
// construction only needs the type to be s-recording for each group size
// s >= 2 (e.g. Sn(2) for k=2, n=3 — a type that is provably not 3-recording
// and hence cannot solve 3-process consensus this way at all).
//
// Processes run StagedProgram chains of length <= 1 (rc/staged.hpp), so the
// staged symmetry declaration applies.
#ifndef RCONS_RC_K_SET_HPP
#define RCONS_RC_K_SET_HPP

#include <vector>

#include "rc/tournament.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"

namespace rcons::rc {

struct KSetTeamSystem {
  sim::Memory memory;
  std::vector<sim::Process> processes;  // one per process, groups round-robin
  std::vector<typesys::Value> inputs;   // per process (distinct per group/team)
  int groups = 0;                       // = k

  // staged_symmetry_classes over the per-process chains: same-group,
  // same-(team, op) roles with equal inputs are interchangeable.
  std::vector<int> symmetry_classes;
};

// Builds the k-group split system for n processes over `type`. Process i
// belongs to group i % k; a group of size s >= 2 runs one Figure 2
// team-consensus instance built from an s-recording witness for `type`
// (asserted to exist), a singleton group decides its input directly. Inputs
// are distinct per (group, team): group g announces 100*(g+1)+1 (team A /
// singleton) and 100*(g+1)+2 (team B), and `inputs` doubles as the validity
// set. Requires 1 <= k <= n.
KSetTeamSystem make_k_set_team_consensus(const typesys::ObjectType& type, int k,
                                         int n);

}  // namespace rcons::rc

#endif  // RCONS_RC_K_SET_HPP
