// The spec runner (check/spec_runner.hpp): the verdict string, the exit-code
// mapping, the table, per-scenario metrics and spans, and the resume
// checkpoint checks, each without going through the check_cli binary.
#include "check/spec_runner.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "engine/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcons::check {
namespace {

std::vector<ScenarioSpec> specs_of(const std::string& text) {
  const ScenarioParse parse = parse_scenario_specs(text);
  EXPECT_TRUE(parse.ok()) << parse.errors.front();
  return parse.specs;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    count += 1;
  }
  return count;
}

TEST(SpecRunnerTest, VerdictLetsARealViolationWinOverTruncation) {
  // The worker loop can stop on a limit after it found a violation and
  // report both; a real property violation wins.
  CheckReport both;
  both.violation = sim::Violation{"agreement violated", sim::PropertyKind::kAgreement, 0, {}};
  both.stats.truncated = true;
  both.stats.stop_reason = sim::StopReason::kDeadline;
  EXPECT_EQ(verdict(both), "VIOLATION(agreement)");

  // A truncation's own marker is not a violation.
  CheckReport cut;
  cut.violation = sim::Violation{"time limit exceeded", sim::PropertyKind::kNone, 0, {}};
  cut.stats.truncated = true;
  cut.stats.stop_reason = sim::StopReason::kDeadline;
  EXPECT_EQ(verdict(cut), "TRUNCATED(deadline)");

  EXPECT_EQ(verdict(CheckReport{}), "clean");
}

TEST(SpecRunnerTest, ExitCodeLetsAViolationWinOverTruncation) {
  ScenarioResult clean;
  ScenarioResult truncated;
  truncated.report.stats.truncated = true;
  ScenarioResult violating;
  violating.report.violation =
      sim::Violation{"agreement violated", sim::PropertyKind::kAgreement, 0, {}};
  violating.report.stats.truncated = true;

  EXPECT_EQ(SpecRun{}.exit_code(), 0);
  EXPECT_EQ((SpecRun{{clean, clean}, ""}).exit_code(), 0);
  EXPECT_EQ((SpecRun{{clean, truncated}, ""}).exit_code(), 3);
  EXPECT_EQ((SpecRun{{truncated, violating}, ""}).exit_code(), 1);
  EXPECT_EQ((SpecRun{{clean}, "resume: bad"}).exit_code(), 2);
  EXPECT_TRUE(truncated.truncated());
  EXPECT_FALSE(violating.truncated());
  EXPECT_TRUE(violating.violating());
}

TEST(SpecRunnerTest, TeamConsensusScenariosRunCleanInFileOrder) {
  CheckRequest request;
  request.num_threads = 2;
  const SpecRun run = run_specs(specs_of("type=Sn(2) n=2 model=independent budget=2\n"
                                         "type=Sn(2) n=2 model=simultaneous budget=2\n"
                                         "type=compare-and-swap n=2 budget=2\n"),
                                request);
  ASSERT_TRUE(run.error.empty()) << run.error;
  ASSERT_EQ(run.results.size(), 3u);
  for (const ScenarioResult& result : run.results) {
    EXPECT_TRUE(result.report.clean) << result.name << ": "
                                     << result.report.violation->description;
    EXPECT_GT(result.report.stats.visited, 0u);
  }
  EXPECT_NE(run.results[0].name.find("independent"), std::string::npos);
  EXPECT_NE(run.results[1].name.find("simultaneous"), std::string::npos);
  EXPECT_NE(run.results[2].name.find("compare-and-swap"), std::string::npos);
  EXPECT_EQ(run.exit_code(), 0);
}

TEST(SpecRunnerTest, PrintsOneRowPerScenarioAndTheCleanCount) {
  CheckRequest request;
  request.num_threads = 1;
  const SpecRun run = run_specs(specs_of("type=Sn(2) n=2 model=independent budget=1\n"
                                         "type=Sn(2) n=2 model=simultaneous budget=1\n"
                                         "type=Sn(3) n=3 budget=1 max_visited=10\n"),
                                request);
  ASSERT_EQ(run.results.size(), 3u);
  std::ostringstream out;
  run.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| scenario"), std::string::npos) << text;
  EXPECT_NE(text.find("team/Sn(2)/n=2/independent/c=1"), std::string::npos) << text;
  EXPECT_NE(text.find("TRUNCATED(visited-cap)"), std::string::npos) << text;
  EXPECT_NE(text.find("2/3 scenarios clean (1 truncated)."), std::string::npos) << text;
  // Header + separator + one row per scenario.
  std::istringstream lines(text);
  std::string line;
  std::size_t table_lines = 0;
  while (std::getline(lines, line)) table_lines += !line.empty() && line[0] == '|';
  EXPECT_EQ(table_lines, 2 + run.results.size());
  EXPECT_EQ(run.exit_code(), 3);
}

TEST(SpecRunnerTest, EachScenarioGetsItsOwnCountersAndSpan) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  CheckRequest request;
  request.strategy = Strategy::kSequentialDFS;
  request.obs.metrics = &registry;
  request.obs.tracer = &tracer;
  std::size_t callbacks = 0;
  const SpecRun run =
      run_specs(specs_of("type=Sn(2) n=2 budget=1\n"
                         "type=Sn(3) n=3 budget=1\n"),
                request, [&](const ScenarioResult& result, const ScenarioSystem& pristine) {
                  callbacks += 1;
                  EXPECT_EQ(pristine.processes.size(),
                            static_cast<std::size_t>(result.spec.n));
                });
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_EQ(callbacks, 2u);
  for (const ScenarioResult& result : run.results) {
    // Reset between scenarios: the registry's totals are this scenario's.
    const obs::MetricSample* visited =
        obs::find_sample(result.report.metrics, "engine.visited_states");
    ASSERT_NE(visited, nullptr);
    EXPECT_EQ(visited->value, result.report.stats.visited) << result.name;
  }
  EXPECT_EQ(registry.gauge("portfolio.scenario_index").value(), 2);
  EXPECT_EQ(registry.gauge("portfolio.scenarios_total").value(), 2);

  std::ostringstream trace;
  tracer.write_chrome_trace(trace);
  EXPECT_EQ(count_of(trace.str(), "\"portfolio_scenario: "), 2u);
}

TEST(SpecRunnerTest, RejectsAResumeCheckpointFromAnotherScenarioOrConfig) {
  const std::vector<ScenarioSpec> specs = specs_of("type=Sn(2) n=2 budget=2\n");
  engine::CheckpointData resume;
  resume.label = "type=Sn(2) n=2 budget=3";
  CheckRequest request;
  request.resume = &resume;

  SpecRun run = run_specs(specs, request);
  EXPECT_NE(run.error.find("different scenario"), std::string::npos) << run.error;
  EXPECT_TRUE(run.results.empty());
  EXPECT_EQ(run.exit_code(), 2);

  resume.label = format_scenario_line(specs.front());
  resume.config_hash = 0;
  run = run_specs(specs, request);
  EXPECT_NE(run.error.find("config hash mismatch"), std::string::npos) << run.error;
  EXPECT_TRUE(run.results.empty());
}

}  // namespace
}  // namespace rcons::check
