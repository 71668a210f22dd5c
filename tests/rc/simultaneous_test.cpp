// Theorem 1 / Figure 4: recoverable consensus under SIMULTANEOUS crashes from
// ordinary consensus instances.
#include "rc/simultaneous.hpp"

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "rc/discerning_consensus.hpp"
#include "rc/race.hpp"
#include "typesys/zoo.hpp"

namespace rcons::rc {
namespace {

check::CheckRequest exhaustive_request(sim::Memory memory,
                                       std::vector<sim::Process> processes,
                                       std::vector<typesys::Value> valid,
                                       check::CrashModel model, int crash_budget) {
  check::CheckRequest request;
  request.system.memory = std::move(memory);
  request.system.processes = std::move(processes);
  request.system.properties.valid_outputs = std::move(valid);
  request.budget.crash_model = model;
  request.budget.crash_budget = crash_budget;
  request.strategy = check::Strategy::kAuto;
  return request;
}

using RaceFig4 = SimultaneousRCProgram<RaceConsensusProgram, RaceInstance>;
using TasFig4 = SimultaneousRCProgram<DiscerningConsensusProgram, DiscerningInstance>;

// Figure 4 over idealized consensus-object rounds.
std::pair<sim::Memory, std::vector<sim::Process>> make_race_fig4(int n, int max_rounds) {
  sim::Memory memory;
  std::shared_ptr<const typesys::ObjectType> object_type =
      typesys::make_type("consensus-object");
  auto cache = std::make_shared<typesys::TransitionCache>(object_type, n);
  auto layout = install_simultaneous<RaceInstance>(
      memory, n, max_rounds, [&]() { return install_race(memory, cache); });
  std::vector<sim::Process> processes;
  for (int i = 0; i < n; ++i) {
    // Inputs must lie in 1..n for the race inner (maps to Propose(v)).
    processes.emplace_back(RaceFig4(layout, i, i + 1));
  }
  return {std::move(memory), std::move(processes)};
}

// Figure 4 over Theorem-3 (NON-recoverable) consensus built from TAS — only
// safe because crashes are simultaneous and the Round guards keep every
// process from re-entering an instance (Lemma 27).
std::pair<sim::Memory, std::vector<sim::Process>> make_tas_fig4(int n, int max_rounds) {
  RCONS_ASSERT(n == 2);
  sim::Memory memory;
  std::shared_ptr<const typesys::ObjectType> tas = typesys::make_type("test-and-set");
  auto cache = std::make_shared<typesys::TransitionCache>(tas, n);
  auto witness = hierarchy::find_discerning_witness(*cache);
  RCONS_ASSERT(witness.has_value());
  auto plan = DiscerningPlan::create(cache, *witness);
  auto layout = install_simultaneous<DiscerningInstance>(
      memory, n, max_rounds, [&]() { return install_discerning(memory, plan); });
  std::vector<sim::Process> processes;
  for (int i = 0; i < n; ++i) {
    processes.emplace_back(TasFig4(layout, i, 100 + i));
  }
  return {std::move(memory), std::move(processes)};
}

TEST(SimultaneousTest, NoCrashesSingleRoundDecides) {
  auto [memory, processes] = make_race_fig4(3, /*max_rounds=*/2);
  const check::CheckReport report = check::check(
      exhaustive_request(std::move(memory), std::move(processes), {1, 2, 3},
                         check::CrashModel::kIndependent, 0));
  EXPECT_TRUE(report.clean)
      << report.violation->description << "\n  trace: " << report.violation->trace();
}

TEST(SimultaneousTest, ExhaustiveUnderSimultaneousCrashes) {
  for (int crashes = 1; crashes <= 2; ++crashes) {
    auto [memory, processes] = make_race_fig4(2, /*max_rounds=*/crashes + 2);
    const check::CheckReport report = check::check(
        exhaustive_request(std::move(memory), std::move(processes), {1, 2},
                           check::CrashModel::kSimultaneous, crashes));
    EXPECT_TRUE(report.clean)
        << "crashes=" << crashes << ": " << report.violation->description
        << "\n  trace: " << report.violation->trace();
  }
}

TEST(SimultaneousTest, TheoremOneWithNonRecoverableInner) {
  // The heart of Theorem 1: the inner consensus need not be recoverable.
  auto [memory, processes] = make_tas_fig4(2, /*max_rounds=*/4);
  const check::CheckReport report = check::check(
      exhaustive_request(std::move(memory), std::move(processes), {100, 101},
                         check::CrashModel::kSimultaneous, 2));
  EXPECT_TRUE(report.clean)
      << report.violation->description << "\n  trace: " << report.violation->trace();
}

TEST(SimultaneousTest, RandomStressManySimultaneousCrashes) {
  auto [memory, processes] = make_race_fig4(4, /*max_rounds=*/14);
  check::CheckRequest request;
  request.system.memory = std::move(memory);
  request.system.processes = std::move(processes);
  request.system.properties.valid_outputs = {1, 2, 3, 4};
  request.budget.crash_model = check::CrashModel::kSimultaneous;
  request.budget.crash_budget = 10;
  request.strategy = check::Strategy::kRandomized;
  request.seed = 1;
  request.runs = 30;
  request.crash_per_mille = 40;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean) << report.violation->description;
  EXPECT_EQ(report.incomplete_runs, 0);
}

TEST(SimultaneousTest, RoundsGrowWithCrashes) {
  // The shape behind Appendix A: more simultaneous crash events force later
  // rounds (unbounded instances in the limit — Golab's lower bound).
  long steps_low = 0;
  long steps_high = 0;
  {
    auto [memory, processes] = make_race_fig4(3, 4);
    check::CheckRequest request;
    request.system.memory = std::move(memory);
    request.system.processes = std::move(processes);
    request.budget.crash_model = check::CrashModel::kSimultaneous;
    request.budget.crash_budget = 0;
    request.strategy = check::Strategy::kRandomized;
    request.seed = 1;
    request.runs = 20;
    request.crash_per_mille = 0;
    steps_low = check::check(std::move(request)).total_steps;
  }
  {
    auto [memory, processes] = make_race_fig4(3, 14);
    check::CheckRequest request;
    request.system.memory = std::move(memory);
    request.system.processes = std::move(processes);
    request.budget.crash_model = check::CrashModel::kSimultaneous;
    request.budget.crash_budget = 10;
    request.strategy = check::Strategy::kRandomized;
    request.seed = 1;
    request.runs = 20;
    request.crash_per_mille = 60;
    steps_high = check::check(std::move(request)).total_steps;
  }
  EXPECT_GT(steps_high, steps_low);
}

}  // namespace
}  // namespace rcons::rc
