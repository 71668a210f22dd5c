// File-driven scenario specs: a line-oriented text format describing
// model-checking scenarios, so check_cli (through the spec runner,
// check/spec_runner.hpp) sweeps scenario sets without recompiling.
//
// Grammar (one scenario per line):
//
//   # comment — ignored, as are blank lines
//   type=Sn(2) n=2 model=independent budget=3
//   type=compare-and-swap n=3 model=simultaneous budget=2 name=cas-sim
//   type=Tn(4) n=2 budget=3 max_steps=400 max_visited=1000000
//   type=Sn(4) n=4 budget=1 symmetry=on
//   type=test-and-set n=2 budget=1 algo=halting
//   type=register n=2 budget=0 algo=naive-register
//   type=Sn(2) n=3 k=2 algo=k-set properties=k-set-agreement,validity,wait-freedom
//   type=Sn(2) n=3 k=2 algo=k-set properties=agreement,validity
//
// Fields (whitespace-separated key=value pairs, any order):
//   type        (required) zoo type name — typesys::make_type must know it
//   n           process / role count, >= 2          (default 2)
//   model       independent | simultaneous          (default independent)
//   budget      crash budget, >= 0                  (default 2)
//   name        scenario label                      (default: generated)
//   max_steps   per-run wait-freedom bound override (default: inherit)
//   max_visited visited-state cap override          (default: inherit)
//   time_limit  wall-clock budget override, ms      (default: inherit;
//               the resource sentinel returns a typed truncated verdict)
//   mem_limit   resident-set budget override, MiB   (default: inherit;
//               same sentinel contract, StopReason::kMemory)
//   algo        team | halting | naive-register | k-set   (default team)
//   k           group count for algo=k-set and the k of
//               k-set-agreement, 2 <= k             (required by both)
//   properties  comma-joined property list          (default: the classic trio
//               agreement,validity,wait-freedom; names are the
//               sim::property_name spellings, also: k-set-agreement,
//               at-most-once)
//   symmetry    on | off                            (default off)
//
// `algo` picks which construction build_spec_system materializes: the
// Figure 2 recoverable team consensus (clean under the type's recording
// level), Ruppert's halting-model tournament (breaks under independent
// crashes — the halting-TAS violation), the naive write-then-read register
// race (breaks with no crashes), or the k-group split consensus
// (rc::make_k_set_team_consensus — clean for (k,n)-set agreement, violating
// for plain agreement). `properties` selects which typed properties the
// check verifies (sim/properties.hpp); `symmetry=on` attaches the scenario's
// symmetry declaration so the explorers canonicalize interchangeable
// processes (engine/node_store.hpp).
//
// Parsing never aborts: malformed lines are collected as "line N: ..." errors
// and well-formed lines still produce specs, so a sweep can report every
// problem in a file at once.
#ifndef RCONS_CHECK_SCENARIO_SPEC_HPP
#define RCONS_CHECK_SCENARIO_SPEC_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/budget.hpp"
#include "sim/properties.hpp"

namespace rcons::check {

enum class ScenarioAlgo {
  kTeamConsensus,      // Figure 2 recoverable team consensus (default)
  kHaltingTournament,  // Ruppert's halting-model tournament (crash-unsafe)
  kNaiveRegister,      // write-then-read register race (interleaving-unsafe)
  kKSetTeamConsensus,  // k independent group consensus — (k,n)-set agreement
};

const char* scenario_algo_name(ScenarioAlgo algo);

struct ScenarioSpec {
  std::string name;  // empty = spec_display_name generates one
  std::string type;  // zoo type name, validated against typesys::make_type
  int n = 2;
  CrashModel crash_model = CrashModel::kIndependent;
  int crash_budget = 2;
  std::int64_t max_steps_per_run = -1;  // -1 = inherit the Budget default
  std::int64_t max_visited = -1;        // -1 = inherit the Budget default
  std::int64_t time_limit_ms = -1;      // -1 = inherit (0 would mean unlimited)
  std::int64_t mem_limit_mb = -1;       // -1 = inherit (0 would mean unlimited)
  ScenarioAlgo algo = ScenarioAlgo::kTeamConsensus;
  int k = 0;  // 0 = unset; required >= 2 by algo=k-set / k-set-agreement
  // Property kinds in the order listed (parameters come from `k` and the
  // budget); empty = the classic trio. spec_properties() materializes the
  // sim::PropertySet.
  std::vector<sim::PropertyKind> properties;
  bool symmetry = false;  // attach the scenario's symmetry declaration

  // The budget this line asks for: its crash model and budget, plus every
  // override that is not -1 on top of a default Budget.
  Budget budget() const;

  bool operator==(const ScenarioSpec&) const = default;
};

// The sim::PropertySet a spec's `properties`/`k` fields describe (the classic
// trio when the list is empty). The validity output set is filled in later by
// build_spec_system — it depends on the materialized system's inputs.
sim::PropertySet spec_properties(const ScenarioSpec& spec);

struct ScenarioParse {
  std::vector<ScenarioSpec> specs;
  std::vector<std::string> errors;  // "line N: message"

  bool ok() const { return errors.empty(); }
};

ScenarioParse parse_scenario_specs(std::istream& in);
ScenarioParse parse_scenario_specs(const std::string& text);

// Parses a single scenario line (no comment stripping) into `spec`,
// appending problems to `errors`. Shared with the `.viol` violation-file
// parser (check/violation_io.hpp), whose `scenario` line uses this grammar.
void parse_scenario_line(const std::string& line, ScenarioSpec& spec,
                         std::vector<std::string>& errors);

// Renders `spec` back into one grammar line (the inverse of
// parse_scenario_line for every field the grammar covers).
std::string format_scenario_line(const ScenarioSpec& spec);

// Reads and parses `path`; a file that cannot be opened is reported as a
// parse error (specs empty).
ScenarioParse load_scenario_file(const std::string& path);

}  // namespace rcons::check

#endif  // RCONS_CHECK_SCENARIO_SPEC_HPP
