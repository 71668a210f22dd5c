#include "engine/portfolio.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

TEST(PortfolioTest, TeamConsensusScenariosRunCleanUnderBothModels) {
  PortfolioConfig config;
  config.num_threads = 2;
  Portfolio portfolio(config);
  auto sn2 = typesys::make_type("Sn(2)");
  auto cas = typesys::make_type("compare-and-swap");
  ASSERT_NE(sn2, nullptr);
  ASSERT_NE(cas, nullptr);
  portfolio.add_team_consensus(*sn2, 2, sim::CrashModel::kIndependent, 2);
  portfolio.add_team_consensus(*sn2, 2, sim::CrashModel::kSimultaneous, 2);
  portfolio.add_team_consensus(*cas, 2, sim::CrashModel::kIndependent, 2);
  EXPECT_EQ(portfolio.size(), 3u);

  const auto results = portfolio.run_all();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.clean) << result.scenario.name << ": "
                              << result.violation->description;
    EXPECT_GT(result.stats.visited, 0u);
    EXPECT_FALSE(result.scenario.name.empty());
  }
  // Scenario ordering is preserved and names carry the configuration.
  EXPECT_NE(results[0].scenario.name.find("independent"), std::string::npos);
  EXPECT_NE(results[1].scenario.name.find("simultaneous"), std::string::npos);
}

TEST(PortfolioTest, CustomScenarioReportsViolation) {
  // A custom-built broken system: both processes decide their own input.
  struct DecideOwnInput {
    typesys::Value input = 0;
    sim::StepResult step(sim::Memory&) { return sim::StepResult::decided(input); }
    void encode(std::vector<typesys::Value>& out) const { out.push_back(0); }
    std::size_t decode(const typesys::Value*, std::size_t) { return 1; }
  };

  Portfolio portfolio(PortfolioConfig{.num_threads = 2});
  Scenario scenario;
  scenario.name = "broken/decide-own-input";
  scenario.crash_budget = 0;
  scenario.num_processes = 2;
  scenario.object_type = "none";
  scenario.build = [] {
    ScenarioSystem system;
    system.processes.emplace_back(DecideOwnInput{1});
    system.processes.emplace_back(DecideOwnInput{2});
    system.properties.valid_outputs = {1, 2};
    return system;
  };
  portfolio.add(std::move(scenario));

  const auto results = portfolio.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].clean);
  ASSERT_TRUE(results[0].violation.has_value());
  EXPECT_NE(results[0].violation->description.find("agreement"), std::string::npos);
}

TEST(PortfolioTest, VerdictTableHasOneRowPerScenario) {
  Portfolio portfolio(PortfolioConfig{.num_threads = 1});
  auto sn2 = typesys::make_type("Sn(2)");
  portfolio.add_team_consensus(*sn2, 2, sim::CrashModel::kIndependent, 1);
  portfolio.add_team_consensus(*sn2, 2, sim::CrashModel::kSimultaneous, 1);
  const auto results = portfolio.run_all();

  std::ostringstream out;
  Portfolio::verdict_table(results).print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("clean"), std::string::npos);
  EXPECT_NE(text.find("team-consensus/Sn(2)"), std::string::npos);
  // Header + separator + one row per scenario.
  int lines = 0;
  for (const char ch : text) lines += ch == '\n';
  EXPECT_EQ(lines, 2 + static_cast<int>(results.size()));
}

TEST(PortfolioTest, VerdictTableShowsARealViolationOverTruncation) {
  // The worker loop can stop on a limit after it found a violation and
  // report both; a real property violation wins, as in check_cli's table.
  ScenarioResult truncated_and_violating;
  truncated_and_violating.scenario.name = "both";
  truncated_and_violating.violation =
      sim::Violation{"agreement violated", sim::PropertyKind::kAgreement, 0, {}};
  truncated_and_violating.stats.truncated = true;
  truncated_and_violating.stats.stop_reason = sim::StopReason::kDeadline;
  ScenarioResult truncated_only;
  truncated_only.scenario.name = "cut";
  truncated_only.violation = sim::Violation{"time limit exceeded", sim::PropertyKind::kNone,
                                            0, {}};
  truncated_only.stats.truncated = true;
  truncated_only.stats.stop_reason = sim::StopReason::kDeadline;

  std::ostringstream out;
  Portfolio::verdict_table({truncated_and_violating, truncated_only}).print(out);
  const std::string text = out.str();
  const std::size_t both_row = text.find("| both");
  const std::size_t cut_row = text.find("| cut");
  ASSERT_NE(both_row, std::string::npos) << text;
  ASSERT_NE(cut_row, std::string::npos) << text;
  const std::string both_line = text.substr(both_row, text.find('\n', both_row) - both_row);
  const std::string cut_line = text.substr(cut_row, text.find('\n', cut_row) - cut_row);
  EXPECT_NE(both_line.find("VIOLATION(agreement)"), std::string::npos) << text;
  EXPECT_EQ(both_line.find("TRUNCATED"), std::string::npos) << text;
  EXPECT_NE(cut_line.find("TRUNCATED(deadline)"), std::string::npos) << text;
}

}  // namespace
}  // namespace rcons::engine
