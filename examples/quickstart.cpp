// Quickstart: verify recoverable consensus among 4 crash-prone processes.
//
// The check:: facade model-checks the S_4 protocol core (the paper's
// Figure 2 algorithm) exhaustively, every interleaving and crash placement,
// picking the execution backend automatically. The processes agree despite
// crashes because the shared S_4 object records which team updated it
// first.
//
//   $ ./quickstart
#include <iostream>

#include "check/check.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/types/sn.hpp"

int main() {
  using namespace rcons;
  // S_4 is 4-recording (Proposition 21), hence rcons(S_4) = 4: exactly enough
  // for 4 processes. Any type the checker proves 4-recording would do.
  typesys::SnType s4(4);

  std::cout << "model-check the S_4 core (all interleavings, 1 crash)\n";
  rc::TeamConsensusSystem core = rc::make_team_consensus_system(s4, 4, 1001, 2002);
  check::CheckRequest request;
  request.system.memory = std::move(core.memory);
  request.system.processes = std::move(core.processes);
  request.system.properties.valid_outputs = {1001, 2002};
  request.budget.crash_budget = 1;
  request.strategy = check::Strategy::kAuto;
  const check::CheckReport report = check::check(std::move(request));
  std::cout << "  " << report.stats.visited << " states via "
            << check::strategy_name(report.strategy) << ": "
            << (report.clean ? "clean" : report.violation->description) << "\n";
  if (!report.clean) {
    std::cout << "  schedule: " << report.violation->trace() << "\n";
    return 1;
  }
  std::cout << "  agreement, validity and recoverable wait-freedom hold.\n";
  return 0;
}
