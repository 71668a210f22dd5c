// The spec runner: the one place that turns parsed scenario specs into
// verdicts. check_cli's spec-file path is argument parsing around it.
//
// The caller fills one CheckRequest with everything that is the same for
// every scenario (strategy, threads, runs, seed, obs hooks, sentinel,
// watchdog, fault plan, checkpoint path and resume data). For each spec, in
// file order, the runner
//   - fills `system` (build_spec_system), `budget` (ScenarioSpec::budget) and
//     `checkpoint_label` (the spec's grammar line);
//   - rejects a resume checkpoint whose label or config hash differs from the
//     scenario's, before the engine sees it;
//   - with a metrics registry, resets the check./engine./store./random./
//     replay.* prefixes so each scenario's counters read its own work, and
//     keeps the portfolio.scenario_index / portfolio.scenarios_total gauges
//     current;
//   - with a tracer, wraps the scenario in one "portfolio_scenario: <name>"
//     span;
//   - runs check() and hands the result to the caller's callback.
#ifndef RCONS_CHECK_SPEC_RUNNER_HPP
#define RCONS_CHECK_SPEC_RUNNER_HPP

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"

namespace rcons::check {

// "clean", "VIOLATION(<property>)" or "TRUNCATED(<stop reason>)". A report
// can be both truncated and violating (the worker loop keeps the best
// violation found before a stop); a real property violation wins. A
// truncation's own marker (property kNone) is not a violation.
std::string verdict(const CheckReport& report);

struct ScenarioResult {
  ScenarioSpec spec;
  std::string name;  // spec_display_name(spec)
  CheckReport report;

  bool violating() const;
  bool truncated() const;  // and not violating
};

struct SpecRun {
  std::vector<ScenarioResult> results;
  // Set when a resume checkpoint was rejected; the runner stopped there.
  std::string error;

  // 2 on error or when a scenario's final checkpoint could not be written,
  // else 1 if any scenario violates (a found bug wins over a hit budget),
  // else 3 if any was truncated, else 0.
  int exit_code() const;

  // The verdict table (scenario, strategy, verdict, visited, runs, time(s))
  // and the "N/M scenarios clean (K truncated)." line.
  void print(std::ostream& out) const;
};

// Called after each scenario with its result and a pristine copy of its
// system, e.g. to minimize, replay or save a violation.
using ScenarioCallback =
    std::function<void(const ScenarioResult& result, const ScenarioSystem& pristine)>;

SpecRun run_specs(const std::vector<ScenarioSpec>& specs, const CheckRequest& request,
                  const ScenarioCallback& on_result = {});

}  // namespace rcons::check

#endif  // RCONS_CHECK_SPEC_RUNNER_HPP
