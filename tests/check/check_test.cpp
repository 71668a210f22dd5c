// The unified facade: one check(CheckRequest) entry point must route to all
// four backends, report the strategy it actually used, and produce verdicts
// that agree across backends on the same system.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "check/scenario_spec.hpp"
#include "check/spec_runner.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "obs/metrics.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "support/programs.hpp"
#include "typesys/zoo.hpp"

namespace rcons::check {
namespace {

using test::BrokenConsensus;
using test::ConstantDecider;

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

// Publishes 1 on its first step, then runs `steps` more before deciding 1.
struct SlowWriter {
  sim::RegId reg = 0;
  int steps = 0;
  int pc = 0;

  sim::StepResult step(sim::Memory& memory) {
    if (pc == 0) memory.write(reg, 1);
    if (pc++ < steps) return sim::StepResult::running();
    return sim::StepResult::decided(1);
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(pc); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    return 1;
  }
};

// Decides what it reads on its only step: valid only after the writer went.
struct EagerReader {
  sim::RegId reg = 0;

  sim::StepResult step(sim::Memory& memory) {
    return sim::StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(0); }
  std::size_t decode(const typesys::Value*, std::size_t) { return 1; }
};

CheckRequest broken_request() {
  CheckRequest request;
  const sim::RegId reg = request.system.memory.add_register();
  request.system.processes.emplace_back(BrokenConsensus{reg, 1, 0});
  request.system.processes.emplace_back(BrokenConsensus{reg, 2, 0});
  request.system.properties.valid_outputs = {1, 2};
  request.budget.crash_budget = 0;
  return request;
}

CheckRequest team_request(const std::string& type_name, int n, int crash_budget,
                          bool symmetric = false) {
  auto type = typesys::make_type(type_name);
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {kInputA, kInputB};
  if (symmetric) request.system.symmetry_classes = std::move(system.symmetry_classes);
  request.budget.crash_budget = crash_budget;
  return request;
}

// Write-then-read "consensus" over one register, with decode() support: a
// compact violating system whose only breakable property is agreement, so
// every backend must report that property whichever trace it finds first.
CheckRequest naive_register_request() {
  rc::NaiveRegisterSystem system = rc::make_naive_register_system(3);
  CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = std::move(system.inputs);
  request.budget.crash_budget = 1;
  return request;
}

TEST(CheckTest, SequentialDfsFindsViolationWithReplayableSchedule) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.complete);  // a found violation is a definitive verdict
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find("agreement"), std::string::npos);
  EXPECT_FALSE(report.violation->schedule.empty());
}

TEST(CheckTest, ParallelBfsAgreesWithSequential) {
  CheckRequest sequential_request = team_request("Sn(2)", 2, 3);
  sequential_request.strategy = Strategy::kSequentialDFS;
  const CheckReport sequential = check(std::move(sequential_request));

  CheckRequest parallel_request = team_request("Sn(2)", 2, 3);
  parallel_request.strategy = Strategy::kParallelBFS;
  parallel_request.num_threads = 4;
  const CheckReport parallel = check(std::move(parallel_request));

  EXPECT_EQ(parallel.strategy, Strategy::kParallelBFS);
  EXPECT_EQ(sequential.clean, parallel.clean);
  EXPECT_TRUE(parallel.complete);
  EXPECT_EQ(sequential.stats.visited, parallel.stats.visited);
  EXPECT_EQ(sequential.stats.transitions, parallel.stats.transitions);
}

TEST(CheckTest, AutoStaysSequentialOnSmallStateSpaces) {
  CheckRequest request = team_request("Sn(2)", 2, 2);
  request.strategy = Strategy::kAuto;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.complete);
}

TEST(CheckTest, DefaultAutoChecksEveryCheckedInScenarioOnTheProbe) {
  // The default probe cap is chosen for this traffic: every line of the
  // checked-in spec files and every corpus scenario fits in the probe, so
  // kAuto reports the depth-first verdict with the visited counts (and, for
  // the violating ones, the first violations) the benchmark's spec-sweep
  // pins.
  const std::map<std::string, std::uint64_t> pins = {
      // examples/scenarios/default.spec
      {"team/Sn(2)/n=2/independent/c=3", 792},
      {"team/Sn(2)/n=2/simultaneous/c=3", 556},
      {"team/Sn(3)/n=3/independent/c=2", 6'081},
      {"team/Sn(3)/n=3/simultaneous/c=2", 3'383},
      {"team/Tn(4)/n=2/independent/c=3", 744},
      {"team/Tn(4)/n=2/simultaneous/c=3", 619},
      {"team/compare-and-swap/n=2/independent/c=3", 496},
      {"team/compare-and-swap/n=2/simultaneous/c=3", 421},
      {"team/compare-and-swap/n=3/independent/c=2", 2'243},
      {"team/compare-and-swap/n=3/simultaneous/c=2", 1'586},
      {"team/sticky-bit/n=3/independent/c=2", 1'681},
      {"team/sticky-bit/n=3/simultaneous/c=2", 1'214},
      {"team/consensus-object/n=2/independent/c=3", 496},
      {"team/consensus-object/n=2/simultaneous/c=3", 421},
      {"team/readable-stack/n=3/independent/c=2", 8'836},
      {"team/readable-stack/n=3/simultaneous/c=2", 5'681},
      // examples/scenarios/k_set.spec; its second line is also a corpus file
      {"kset-clean", 657},
      {"kset-consensus-violates", 6},
      // tests/corpus/*.viol
      {"halting-tas", 12},
      {"register-race", 3},
  };
  const std::filesystem::path root(RCONS_SOURCE_DIR);
  std::vector<ScenarioSpec> specs;
  for (const char* file : {"default.spec", "k_set.spec"}) {
    const ScenarioParse parse =
        load_scenario_file((root / "examples" / "scenarios" / file).string());
    ASSERT_TRUE(parse.ok()) << file;
    specs.insert(specs.end(), parse.specs.begin(), parse.specs.end());
  }
  for (const auto& entry : std::filesystem::directory_iterator(root / "tests" / "corpus")) {
    if (entry.path().extension() != ".viol") continue;
    const ViolationParse parse = load_violation_file(entry.path().string());
    ASSERT_TRUE(parse.ok()) << entry.path();
    specs.push_back(parse.file->scenario);
  }
  ASSERT_EQ(specs.size(), 21u);  // 16 + 2 spec lines and 3 corpus files

  CheckRequest request;
  ASSERT_EQ(request.strategy, Strategy::kAuto);
  request.num_threads = 2;
  const SpecRun run = run_specs(specs, request);
  ASSERT_EQ(run.results.size(), specs.size());
  for (const ScenarioResult& result : run.results) {
    SCOPED_TRACE(result.name);
    const auto pin = pins.find(result.name);
    ASSERT_NE(pin, pins.end());
    EXPECT_EQ(result.report.strategy, Strategy::kSequentialDFS);
    EXPECT_TRUE(result.report.complete);
    EXPECT_EQ(result.report.stats.visited, pin->second);
  }
}

TEST(CheckTest, SmallCheckNeverGrowsItsIndex) {
  // A check of the checked-in specs' typical size fits the index every
  // traversal starts with, so it never pays for a growth: not under the
  // depth-first traversal, the kAuto probe or the worker loop. At 16
  // threads the first array still leaves the headroom every worker needs
  // past a crossing (16 x (2 x 16 + 2n) = 576 keys, under 3/8 of 2,048
  // slots), so the worker loop starts without growing it either.
  const ScenarioParse parse =
      parse_scenario_specs("type=consensus-object n=2 model=simultaneous budget=3\n");
  ASSERT_TRUE(parse.ok());
  const std::pair<Strategy, int> runs[] = {{Strategy::kSequentialDFS, 2},
                                           {Strategy::kAuto, 2},
                                           {Strategy::kParallelBFS, 2},
                                           {Strategy::kParallelBFS, 16}};
  for (const auto& [strategy, threads] : runs) {
    SCOPED_TRACE(std::string(strategy_name(strategy)) + " threads=" + std::to_string(threads));
    CheckRequest request;
    request.system = build_spec_system(parse.specs[0]);
    request.budget = parse.specs[0].budget();
    request.strategy = strategy;
    request.num_threads = threads;
    const CheckReport report = check(std::move(request));
    EXPECT_TRUE(report.clean);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.stats.visited, 421u);
    EXPECT_EQ(report.stats.rehashes, 0u);
  }
}

TEST(CheckTest, DefaultAutoEscalatesSn4PastTheProbeCap) {
  // Sn(4) n=4 c=1 has 38,837 states, more than the default probe takes: the
  // probe stops at its cap and the worker loop finishes the graph.
  obs::MetricsRegistry registry;
  CheckRequest request = team_request("Sn(4)", 4, 1);
  request.num_threads = 2;
  request.obs.metrics = &registry;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kParallelBFS);
  EXPECT_EQ(report.threads_used, 2);
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.stats.visited, 38'837u);
  EXPECT_EQ(report.stats.transitions, report.stats.classified());
  const obs::MetricSample* probe = obs::find_sample(report.metrics, "check.probe_visited");
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->value, 0u);
  EXPECT_LE(probe->value, 32'768u);
}

TEST(CheckTest, AutoEscalatesToParallelWhenProbeTruncates) {
  // A probe smaller than the state space stops on its visited cap and the
  // worker loop continues from its store and DFS-stack cut
  // (ParallelExplorer::escalate), so every count must equal a sequential run
  // from the root — whatever the cut, the worker count, or the reduction.
  // Under symmetry reduction, decisions and orbit_skipped depend on which
  // concrete state first reaches each orbit (its per-run step counts decide
  // which sibling events are skipped), so they differ between kSequentialDFS
  // and kParallelBFS even at one thread; there the order-free counts are
  // pinned and the exactness identity is left to tests/obs/metrics_test.cpp.
  for (const bool symmetric : {false, true}) {
    CheckRequest sequential_request = team_request("Sn(3)", 3, 2, symmetric);
    sequential_request.strategy = Strategy::kSequentialDFS;
    const CheckReport sequential = check(std::move(sequential_request));
    ASSERT_TRUE(sequential.clean);
    ASSERT_GT(sequential.stats.visited, 1000u);
    EXPECT_EQ(sequential.stats.orbit_skipped > 0, symmetric);

    for (const std::uint64_t probe_limit : {1, 7, 100, 1000}) {
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("symmetric=" + std::to_string(symmetric) +
                     " probe_limit=" + std::to_string(probe_limit) +
                     " threads=" + std::to_string(threads));
        CheckRequest request = team_request("Sn(3)", 3, 2, symmetric);
        request.strategy = Strategy::kAuto;
        request.auto_probe_limit = probe_limit;
        request.num_threads = threads;
        const CheckReport report = check(std::move(request));
        EXPECT_EQ(report.strategy, Strategy::kParallelBFS);
        EXPECT_EQ(report.threads_used, threads);
        EXPECT_TRUE(report.clean);
        EXPECT_TRUE(report.complete);
        EXPECT_EQ(report.stats.visited, sequential.stats.visited);
        EXPECT_EQ(report.stats.transitions, sequential.stats.transitions);
        EXPECT_EQ(report.stats.terminal_states, sequential.stats.terminal_states);
        EXPECT_EQ(report.stats.store_nodes, report.stats.visited + 1);  // + root
        if (symmetric) {
          EXPECT_GT(report.stats.orbit_skipped, 0u);
        } else {
          EXPECT_EQ(report.stats.decisions, sequential.stats.decisions);
          EXPECT_EQ(report.stats.orbit_skipped, 0u);
        }
      }
    }
  }
}

TEST(CheckTest, AutoHandoffReportsAFullReplayableViolation) {
  // The probe is too small to reach the violation, so it is found below a
  // handed-off state: its trace must still be a schedule from the root.
  CheckRequest parallel_request = naive_register_request();
  parallel_request.strategy = Strategy::kParallelBFS;
  parallel_request.num_threads = 2;
  const CheckReport parallel = check(std::move(parallel_request));
  ASSERT_TRUE(parallel.violation.has_value());
  ASSERT_EQ(parallel.violation->property, sim::PropertyKind::kAgreement);

  for (const std::uint64_t probe_limit : {1, 2}) {
    SCOPED_TRACE("probe_limit=" + std::to_string(probe_limit));
    CheckRequest request = naive_register_request();
    request.strategy = Strategy::kAuto;
    request.auto_probe_limit = probe_limit;
    request.num_threads = 2;
    const CheckReport report = check(std::move(request));
    ASSERT_EQ(report.strategy, Strategy::kParallelBFS);
    ASSERT_TRUE(report.violation.has_value());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.violation->property, parallel.violation->property);
    EXPECT_EQ(report.stats.visited, parallel.stats.visited);

    CheckRequest replay_request = naive_register_request();
    replay_request.strategy = Strategy::kReplay;
    replay_request.schedule = report.violation->schedule;
    const CheckReport replayed = check(std::move(replay_request));
    ASSERT_TRUE(replayed.violation.has_value());
    EXPECT_EQ(replayed.violation->property, parallel.violation->property);
  }
}

TEST(CheckTest, AutoHandoffCarriesTheProbesViolationCandidate) {
  // The only violating edge is the root's last event, step(p1): the DFS
  // explores the writer's whole subtree first, so a small probe stops inside
  // it and meets that edge only while finishing its stack. The engine must
  // report exactly what a sequential run from the root reports.
  auto request_for = [](Strategy strategy) {
    CheckRequest request;
    const sim::RegId reg = request.system.memory.add_register();
    request.system.processes.emplace_back(SlowWriter{reg, 30, 0});
    request.system.processes.emplace_back(EagerReader{reg});
    request.system.properties.valid_outputs = {1};
    request.budget.crash_budget = 0;
    request.strategy = strategy;
    request.auto_probe_limit = 5;
    request.num_threads = 2;
    return request;
  };
  const CheckReport sequential = check(request_for(Strategy::kSequentialDFS));
  ASSERT_TRUE(sequential.violation.has_value());
  ASSERT_EQ(sequential.violation->property, sim::PropertyKind::kValidity);
  ASSERT_EQ(sequential.violation->schedule,
            std::vector<sim::ScheduleEvent>{sim::ScheduleEvent::step(1)});

  const CheckReport report = check(request_for(Strategy::kAuto));
  EXPECT_EQ(report.strategy, Strategy::kParallelBFS);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.violation->property, sim::PropertyKind::kValidity);
  EXPECT_EQ(report.violation->schedule, sequential.violation->schedule);
  EXPECT_EQ(report.stats.visited, sequential.stats.visited);
  EXPECT_EQ(report.stats.transitions, sequential.stats.transitions);
}

TEST(CheckTest, AutoProbeStoppedByMemoryLimitDoesNotEscalate) {
  // Only a probe stopped on its own visited cap escalates; a resource limit
  // is the verdict (the engine would only hit it again).
  CheckRequest request = team_request("Sn(3)", 3, 2);
  request.strategy = Strategy::kAuto;
  request.budget.mem_limit_mb = 1;  // any live process is above this
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_EQ(report.stats.stop_reason, sim::StopReason::kMemory);
  EXPECT_FALSE(report.complete);
}

TEST(CheckTest, AutoProbeStoppedByDeadlineDoesNotEscalate) {
  // A deadline the probe hits is the whole check's deadline: no fresh time
  // budget on the engine.
  CheckRequest request = team_request("Sn(5)", 5, 1);
  request.strategy = Strategy::kAuto;
  request.budget.time_limit_ms = 1;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_EQ(report.stats.stop_reason, sim::StopReason::kDeadline);
  EXPECT_FALSE(report.complete);
}

TEST(CheckTest, AutoRespectsRealBudgetTruncation) {
  // When max_visited itself is below the probe limit, a truncated probe IS
  // the final answer (the engine would truncate too): no escalation.
  CheckRequest request = team_request("Sn(3)", 3, 2);
  request.strategy = Strategy::kAuto;
  request.budget.max_visited = 50;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.stats.truncated());
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find("max_visited"), std::string::npos);
}

TEST(CheckTest, AutoHandoffStillHonoursTheRealBudget) {
  // A real budget just above the probe limit: finishing the probe's stack
  // may already spend it, and the engine's first new state then truncates.
  for (const std::int64_t max_visited : {101, 105, 150}) {
    SCOPED_TRACE("max_visited=" + std::to_string(max_visited));
    CheckRequest request = team_request("Sn(3)", 3, 2);
    request.strategy = Strategy::kAuto;
    request.auto_probe_limit = 100;
    request.num_threads = 2;
    request.budget.max_visited = max_visited;
    const CheckReport report = check(std::move(request));
    EXPECT_EQ(report.strategy, Strategy::kParallelBFS);
    EXPECT_FALSE(report.complete);
    EXPECT_EQ(report.stats.stop_reason, sim::StopReason::kVisitedCap);
    ASSERT_TRUE(report.violation.has_value());
    EXPECT_EQ(report.violation->property, sim::PropertyKind::kNone);
  }
}

TEST(CheckTest, RandomizedAggregatesRunsAndStaysIncompleteAsProof) {
  CheckRequest request = team_request("Sn(3)", 3, 2);
  request.strategy = Strategy::kRandomized;
  request.runs = 25;
  request.seed = 3;
  request.crash_per_mille = 200;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kRandomized);
  EXPECT_TRUE(report.clean);
  EXPECT_FALSE(report.complete);  // sampling proves nothing
  EXPECT_EQ(report.runs, 25);
  EXPECT_EQ(report.incomplete_runs, 0);
  EXPECT_GT(report.total_steps, 0);
}

TEST(CheckTest, RandomizedViolationCarriesReplayableSchedule) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kRandomized;
  request.runs = 50;  // the broken race is dirty enough to hit quickly
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_FALSE(report.violation->schedule.empty());

  // Round-trip: replay the recorded schedule through the facade.
  CheckRequest replay_request = broken_request();
  replay_request.strategy = Strategy::kReplay;
  replay_request.schedule = report.violation->schedule;
  const CheckReport replayed = check(std::move(replay_request));
  EXPECT_EQ(replayed.strategy, Strategy::kReplay);
  ASSERT_FALSE(replayed.clean);
  EXPECT_NE(replayed.violation->description.find("agreement"), std::string::npos);
}

TEST(CheckTest, ReplayReportsDecisionsAndOutputs) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kReplay;
  request.schedule = {sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(1),
                      sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(1)};
  const CheckReport report = check(std::move(request));
  EXPECT_TRUE(report.clean);  // p0 and p1 both read 2: agreement holds
  EXPECT_FALSE(report.complete);
  ASSERT_EQ(report.decisions.size(), 2u);
  EXPECT_EQ(report.decisions[0], 2);
  EXPECT_EQ(report.decisions[1], 2);
  EXPECT_EQ(report.outputs.size(), 2u);
}

TEST(CheckTest, SystemPropertySetIsTheOneSourceOfValidity) {
  // The old Budget.valid_outputs / system.valid_outputs dual fallback is
  // gone: the system's PropertySet owns the validity set, and tightening it
  // is a property-set edit, not a budget knob.
  CheckRequest request;
  request.system.processes.emplace_back(ConstantDecider{2});
  request.system.properties.valid_outputs = {1};  // 2 is not a valid output
  request.budget.crash_budget = 0;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  EXPECT_EQ(report.violation->property, sim::PropertyKind::kValidity);
  EXPECT_NE(report.violation->description.find("validity"), std::string::npos);
}

TEST(CheckTest, ReportsStoreCountsOnDecodableSystems) {
  // Exhaustive strategies intern every state, and the report carries the
  // store's stats.
  auto type = typesys::make_type("Sn(2)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 2, kInputA, kInputB);
  CheckRequest request;
  request.system.memory = system.memory;
  request.system.processes = system.processes;
  request.system.properties.valid_outputs = {kInputA, kInputB};
  request.budget.crash_budget = 2;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  ASSERT_TRUE(report.clean);
  EXPECT_EQ(report.stats.store_nodes, report.stats.visited + 1);  // + root
  EXPECT_GT(report.stats.store_bytes, 0u);
  EXPECT_GT(report.stats.encodes, report.stats.visited);
  EXPECT_EQ(report.stats.canonical_hits, 0u);  // no declaration given
}

TEST(CheckTest, SymmetryDeclarationShrinksVisitedSetThroughFacade) {
  auto type = typesys::make_type("Sn(3)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 3, kInputA, kInputB);

  auto request_for = [&](bool symmetric) {
    CheckRequest request;
    request.system.memory = system.memory;
    request.system.processes = system.processes;
    request.system.properties.valid_outputs = {kInputA, kInputB};
    if (symmetric) request.system.symmetry_classes = system.symmetry_classes;
    request.budget.crash_budget = 1;
    request.strategy = Strategy::kSequentialDFS;
    return request;
  };

  const CheckReport plain = check(request_for(false));
  const CheckReport reduced = check(request_for(true));
  ASSERT_TRUE(plain.clean);
  ASSERT_TRUE(reduced.clean);
  EXPECT_LE(reduced.stats.visited, plain.stats.visited);
  EXPECT_GT(reduced.stats.canonical_hits, 0u);
}

TEST(CheckTest, WallTimeIsReported) {
  CheckRequest request = team_request("Sn(2)", 2, 1);
  const CheckReport report = check(std::move(request));
  EXPECT_GE(report.seconds, 0.0);
}

}  // namespace
}  // namespace rcons::check
