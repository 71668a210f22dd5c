#include "engine/portfolio.hpp"

#include <sstream>

#include "check/spec_system.hpp"
#include "obs/trace.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/object_type.hpp"
#include "typesys/zoo.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

namespace {
constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;
}  // namespace

const char* crash_model_name(sim::CrashModel model) {
  return model == sim::CrashModel::kIndependent ? "independent" : "simultaneous";
}

Portfolio::Portfolio(PortfolioConfig config) : config_(std::move(config)) {}

void Portfolio::add(Scenario scenario) {
  RCONS_ASSERT(scenario.build != nullptr);
  scenarios_.push_back(std::move(scenario));
}

void Portfolio::add_team_consensus(const typesys::ObjectType& type, int n,
                                   sim::CrashModel crash_model, int crash_budget) {
  // Materialize once (witness search is the expensive part); the builder
  // hands out value-semantic copies so every run starts pristine.
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(type, n, kInputA, kInputB);
  auto shared = std::make_shared<rc::TeamConsensusSystem>(std::move(system));

  Scenario scenario;
  scenario.crash_model = crash_model;
  scenario.crash_budget = crash_budget;
  scenario.num_processes = n;
  scenario.object_type = type.name();
  std::ostringstream name;
  name << "team-consensus/" << type.name() << "/n=" << n << "/"
       << crash_model_name(crash_model) << "/c=" << crash_budget;
  scenario.name = name.str();
  scenario.build = [shared] {
    ScenarioSystem out;
    out.memory = shared->memory;
    out.processes = shared->processes;
    out.properties.valid_outputs = {kInputA, kInputB};
    return out;
  };
  scenarios_.push_back(std::move(scenario));
}

void Portfolio::add_spec(const check::ScenarioSpec& spec) {
  // Materialize once (witness search is the expensive part); the builder
  // hands out value-semantic copies so every run starts pristine. The built
  // system carries the spec's symmetry declaration when symmetry=on.
  auto shared =
      std::make_shared<const check::ScenarioSystem>(check::build_spec_system(spec));

  Scenario scenario;
  scenario.crash_model = spec.crash_model;
  scenario.crash_budget = spec.crash_budget;
  scenario.num_processes = spec.n;
  scenario.object_type = spec.type;
  scenario.name = check::spec_display_name(spec);
  scenario.properties_label = shared->properties.label();
  scenario.max_steps_per_run = spec.max_steps_per_run;
  scenario.max_visited = spec.max_visited;
  scenario.time_limit_ms = spec.time_limit_ms;
  scenario.mem_limit_mb = spec.mem_limit_mb;
  scenario.build = [shared] { return *shared; };
  scenarios_.push_back(std::move(scenario));
}

void Portfolio::add_specs(const std::vector<check::ScenarioSpec>& specs) {
  for (const check::ScenarioSpec& spec : specs) add_spec(spec);
}

std::vector<ScenarioResult> Portfolio::run_all() const {
  std::vector<ScenarioResult> results;
  results.reserve(scenarios_.size());
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->gauge("portfolio.scenarios_total")
        .set(static_cast<std::int64_t>(scenarios_.size()));
  }
  std::size_t index = 0;
  for (const Scenario& scenario : scenarios_) {
    index += 1;
    if (config_.obs.metrics != nullptr) {
      // Per-scenario counters: clear the previous scenario's totals (the
      // portfolio.* gauges survive — reset is prefix-scoped).
      config_.obs.metrics->reset("check.");
      config_.obs.metrics->reset("engine.");
      config_.obs.metrics->reset("store.");
      config_.obs.metrics->reset("random.");
      config_.obs.metrics->reset("replay.");
      config_.obs.metrics->gauge("portfolio.scenario_index")
          .set(static_cast<std::int64_t>(index));
    }
    obs::Span scenario_span(config_.obs.tracer, 0,
                            "portfolio_scenario: " + scenario.name);
    ScenarioResult result;
    result.scenario = scenario;

    check::CheckRequest request;
    request.system = scenario.build();
    request.budget = config_.budget;
    request.budget.crash_model = scenario.crash_model;
    request.budget.crash_budget = scenario.crash_budget;
    if (scenario.max_steps_per_run >= 0) {
      request.budget.max_steps_per_run = scenario.max_steps_per_run;
    }
    if (scenario.max_visited >= 0) {
      request.budget.max_visited = scenario.max_visited;
    }
    if (scenario.time_limit_ms >= 0) {
      request.budget.time_limit_ms = scenario.time_limit_ms;
    }
    if (scenario.mem_limit_mb >= 0) {
      request.budget.mem_limit_mb = scenario.mem_limit_mb;
    }
    request.strategy = check::Strategy::kAuto;
    request.num_threads = config_.num_threads;
    request.shard_bits = config_.shard_bits;
    request.obs = config_.obs;

    check::CheckReport report = check::check(std::move(request));
    result.clean = report.clean;
    result.strategy = report.strategy;
    result.violation = std::move(report.violation);
    result.stats = report.stats;
    result.seconds = report.seconds;
    results.push_back(std::move(result));
  }
  return results;
}

util::Table Portfolio::verdict_table(const std::vector<ScenarioResult>& results) {
  util::Table table({"scenario", "model", "crashes", "n", "properties", "verdict",
                     "visited", "transitions", "time(s)"});
  for (const ScenarioResult& result : results) {
    std::ostringstream time;
    time.precision(3);
    time << std::fixed << result.seconds;
    // A report can be both truncated and violating (the worker loop keeps the
    // best violation found before the stop); a real property violation
    // always wins, as in check_cli's table.
    std::string verdict = result.clean ? "clean" : "VIOLATION";
    if (result.violation.has_value() &&
        result.violation->property != sim::PropertyKind::kNone) {
      verdict = std::string("VIOLATION(") +
                sim::property_name(result.violation->property) + ")";
    } else if (result.stats.truncated) {
      verdict = std::string("TRUNCATED(") +
                sim::stop_reason_name(result.stats.stop_reason) + ")";
    }
    table.add_row({result.scenario.name, crash_model_name(result.scenario.crash_model),
                   std::to_string(result.scenario.crash_budget),
                   std::to_string(result.scenario.num_processes),
                   result.scenario.properties_label, verdict,
                   std::to_string(result.stats.visited),
                   std::to_string(result.stats.transitions), time.str()});
  }
  return table;
}

}  // namespace rcons::engine
