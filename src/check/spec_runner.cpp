#include "check/spec_runner.hpp"

#include <sstream>

#include "check/spec_system.hpp"
#include "engine/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace rcons::check {

namespace {

bool real_violation(const CheckReport& report) {
  return report.violation.has_value() &&
         report.violation->property != sim::PropertyKind::kNone;
}

// Empty when `resume` may seed `request`, else why not.
std::string resume_mismatch(const engine::CheckpointData& resume,
                            const CheckRequest& request) {
  if (resume.label != request.checkpoint_label) {
    return "resume: checkpoint is from a different scenario\n  checkpoint: " +
           resume.label + "\n  requested:  " + request.checkpoint_label;
  }
  if (resume.config_hash != checkpoint_config_hash(request)) {
    return "resume: checkpoint config hash mismatch (different "
           "budget/properties/symmetry)";
  }
  return "";
}

}  // namespace

std::string verdict(const CheckReport& report) {
  if (real_violation(report)) {
    return std::string("VIOLATION(") + sim::property_name(report.violation->property) +
           ")";
  }
  if (report.stats.truncated()) {
    return std::string("TRUNCATED(") + sim::stop_reason_name(report.stats.stop_reason) +
           ")";
  }
  return "clean";
}

bool ScenarioResult::violating() const { return real_violation(report); }

bool ScenarioResult::truncated() const {
  return !violating() && report.stats.truncated();
}

int SpecRun::exit_code() const {
  if (!error.empty()) return 2;
  for (const ScenarioResult& result : results) {
    if (!result.report.stats.checkpoint_error.empty()) return 2;
  }
  bool any_truncated = false;
  for (const ScenarioResult& result : results) {
    if (result.violating()) return 1;
    any_truncated = any_truncated || result.truncated();
  }
  return any_truncated ? 3 : 0;
}

void SpecRun::print(std::ostream& out) const {
  util::Table table({"scenario", "strategy", "verdict", "visited", "runs", "time(s)"});
  std::size_t clean = 0;
  std::size_t truncations = 0;
  for (const ScenarioResult& result : results) {
    std::ostringstream time;
    time.precision(3);
    time << std::fixed << result.report.seconds;
    table.add_row({result.name, strategy_name(result.report.strategy),
                   verdict(result.report), std::to_string(result.report.stats.visited),
                   std::to_string(result.report.runs), time.str()});
    clean += !result.violating() && !result.truncated() ? 1 : 0;
    truncations += result.truncated() ? 1 : 0;
  }
  table.print(out);
  out << "\n" << clean << "/" << results.size() << " scenarios clean";
  if (truncations != 0) out << " (" << truncations << " truncated)";
  out << ".\n";
}

SpecRun run_specs(const std::vector<ScenarioSpec>& specs, const CheckRequest& request,
                  const ScenarioCallback& on_result) {
  obs::MetricsRegistry* const metrics = request.obs.metrics;
  if (metrics != nullptr) {
    metrics->gauge("portfolio.scenarios_total").set(static_cast<std::int64_t>(specs.size()));
  }
  SpecRun run;
  for (const ScenarioSpec& spec : specs) {
    ScenarioResult result;
    result.spec = spec;
    result.name = spec_display_name(spec);

    CheckRequest scenario = request;
    const ScenarioSystem pristine = build_spec_system(spec);
    scenario.system = pristine;
    scenario.budget = spec.budget();
    scenario.checkpoint_label = format_scenario_line(spec);
    if (request.resume != nullptr) {
      run.error = resume_mismatch(*request.resume, scenario);
      if (!run.error.empty()) return run;
    }

    if (metrics != nullptr) {
      for (const char* prefix : {"check.", "engine.", "store.", "random.", "replay."}) {
        metrics->reset(prefix);
      }
      metrics->gauge("portfolio.scenario_index")
          .set(static_cast<std::int64_t>(run.results.size() + 1));
    }
    {
      obs::Span span(request.obs.tracer, 0, "portfolio_scenario: " + result.name);
      result.report = check(std::move(scenario));
    }
    if (on_result) on_result(result, pristine);
    run.results.push_back(std::move(result));
  }
  return run;
}

}  // namespace rcons::check
