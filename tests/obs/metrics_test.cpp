// Metrics registry semantics and the cross-backend counter contract: the
// obs counters are not best-effort telemetry — for the exhaustive backends
// they must equal the ExplorerStats the checker reports, exactly, at every
// thread count. A drifting counter means the flush-at-batch-boundary
// bookkeeping lost deltas, which this suite is designed to catch.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/check.hpp"
#include "rc/team_consensus.hpp"
#include "support/programs.hpp"
#include "support/stats_contract.hpp"
#include "typesys/zoo.hpp"

namespace rcons::obs {
namespace {

using test::BrokenConsensus;

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

// --- registry primitives ---------------------------------------------------

TEST(MetricsRegistryTest, CounterAggregatesLanesAndWrapsHighIds) {
  MetricsRegistry registry(4);
  Counter& counter = registry.counter("engine.visited_states");
  counter.add(0, 10);
  counter.add(1, 5);
  counter.add(3, 1);
  counter.add(7, 2);  // 7 % 4 == 3: wraps, still counted
  EXPECT_EQ(counter.total(), 18u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWinsAndIsSigned) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("engine.frontier_pending");
  gauge.set(42);
  gauge.set(-3);
  EXPECT_EQ(gauge.value(), -3);
  const MetricsSnapshot snapshot = registry.snapshot();
  const MetricSample* sample = find_sample(snapshot, "engine.frontier_pending");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, MetricKind::kGauge);
  EXPECT_EQ(sample->gauge_value(), -3);
}

TEST(MetricsRegistryTest, HistogramMergesCountSumMaxAcrossLanes) {
  MetricsRegistry registry(2);
  Histogram& histogram = registry.histogram("engine.batch_size");
  histogram.record(0, 0);
  histogram.record(0, 7);
  histogram.record(1, 1024);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 1031u);
  EXPECT_EQ(histogram.max(), 1024u);
  const std::vector<std::uint64_t> buckets = histogram.buckets();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(buckets[0], 1u);   // v == 0
  EXPECT_EQ(buckets[3], 1u);   // bit_width(7) == 3
  EXPECT_EQ(buckets[11], 1u);  // bit_width(1024) == 11
}

TEST(MetricsRegistryTest, HandlesAreStableAndGetOrCreateReturnsSame) {
  MetricsRegistry registry;
  Counter& first = registry.counter("store.nodes");
  Counter& second = registry.counter("store.nodes");
  EXPECT_EQ(&first, &second);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("store.nodes").add(0, 1);
  registry.counter("check.probe_visited").add(0, 2);
  registry.gauge("engine.num_threads").set(4);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "check.probe_visited");
  EXPECT_EQ(snapshot[1].name, "engine.num_threads");
  EXPECT_EQ(snapshot[2].name, "store.nodes");
}

TEST(MetricsRegistryTest, ResetIsPrefixScopedAndKeepsHandlesValid) {
  MetricsRegistry registry;
  Counter& engine = registry.counter("engine.transitions");
  Counter& store = registry.counter("store.encodes");
  Gauge& portfolio = registry.gauge("portfolio.scenario_index");
  engine.add(0, 100);
  store.add(0, 7);
  portfolio.set(3);

  registry.reset("engine.");
  EXPECT_EQ(engine.total(), 0u);
  EXPECT_EQ(store.total(), 7u);
  EXPECT_EQ(portfolio.value(), 3);

  engine.add(0, 1);  // handle still live after reset
  EXPECT_EQ(engine.total(), 1u);

  registry.reset();  // empty prefix: everything
  EXPECT_EQ(store.total(), 0u);
  EXPECT_EQ(portfolio.value(), 0);
}

// --- the counter contract against the check facade -------------------------

check::CheckRequest team_request(int n, int crash_budget, bool symmetry = false) {
  auto type = typesys::make_type("Sn(" + std::to_string(n) + ")");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {kInputA, kInputB};
  if (symmetry) request.system.symmetry_classes = system.symmetry_classes;
  request.budget.crash_budget = crash_budget;
  return request;
}

check::CheckRequest broken_request() {
  check::CheckRequest request;
  const sim::RegId reg = request.system.memory.add_register();
  request.system.processes.emplace_back(BrokenConsensus{reg, 1, 0});
  request.system.processes.emplace_back(BrokenConsensus{reg, 2, 0});
  request.system.properties.valid_outputs = {1, 2};
  request.budget.crash_budget = 0;
  return request;
}

std::uint64_t counter_value(const MetricsSnapshot& snapshot, std::string_view name) {
  const MetricSample* sample = find_sample(snapshot, name);
  EXPECT_NE(sample, nullptr) << "missing metric " << name;
  return sample == nullptr ? 0 : sample->value;
}

// Pins the contract the doc comments promise: metric totals equal the
// ExplorerStats values in the same report, counter by counter, and the report
// alone shows every transition of the unreduced graph in exactly one of {new
// state, duplicate, violating edge, orbit-skipped sibling} — the exactness
// invariant
//   transitions == visited + duplicates + violation_edges + orbit_skipped.
void expect_exhaustive_contract(const check::CheckReport& report) {
  test::expect_registry_matches_stats(report.metrics, report.stats);
  EXPECT_EQ(report.stats.visited + report.stats.duplicates + report.stats.violation_edges +
                report.stats.orbit_skipped,
            report.stats.transitions);
  // The store interns the root before exploration counts it as visited.
  EXPECT_EQ(report.stats.store_nodes, report.stats.visited + 1);
}

check::CheckReport run_with_registry(check::CheckRequest request,
                                     check::Strategy strategy, int num_threads,
                                     MetricsRegistry& registry) {
  request.strategy = strategy;
  request.num_threads = num_threads;
  request.obs.metrics = &registry;
  return check::check(std::move(request));
}

TEST(MetricsContractTest, SequentialDfsMatchesReportedStats) {
  MetricsRegistry registry;
  const check::CheckReport report = run_with_registry(
      team_request(2, 3), check::Strategy::kSequentialDFS, 0, registry);
  EXPECT_TRUE(report.clean);
  expect_exhaustive_contract(report);
  EXPECT_FALSE(report.metrics.empty());
}

TEST(MetricsContractTest, ParallelCountersEqualAcrossThreadCounts) {
  // The pinned scenario: Sn(2), n=2, crash budget 3 — a few thousand states,
  // deterministic state space. Every thread count must produce byte-identical
  // counter totals; a mismatch means a worker lost a flush.
  MetricsSnapshot baseline;
  engine::ExplorerStats baseline_stats;
  for (const int threads : {1, 2, 4, 8}) {
    MetricsRegistry registry;
    const check::CheckReport report = run_with_registry(
        team_request(2, 3), check::Strategy::kParallelBFS, threads, registry);
    EXPECT_TRUE(report.clean);
    expect_exhaustive_contract(report);
    if (baseline.empty()) {
      baseline = report.metrics;
      baseline_stats = report.stats;
      continue;
    }
    EXPECT_EQ(report.stats.visited, baseline_stats.visited) << threads << " threads";
    EXPECT_EQ(report.stats.transitions, baseline_stats.transitions);
    for (const char* name :
         {"engine.visited_states", "engine.transitions", "engine.decisions",
          "engine.terminal_states", "engine.duplicates", "engine.violation_edges",
          "store.nodes", "store.value_bytes"}) {
      EXPECT_EQ(counter_value(report.metrics, name), counter_value(baseline, name))
          << name << " diverged at " << threads << " threads";
    }
  }
}

TEST(MetricsContractTest, SymmetricInstanceCreditsOrbitSkipsExactly) {
  // With a symmetry declaration the orbit-aware expansion skips sibling
  // events; every skip must surface in engine.orbit_skipped AND keep the
  // exactness invariant (skips count as transitions of the unreduced graph).
  // Pinned at both exhaustive backends so the credit path of each is covered.
  for (const int threads : {0, 2}) {
    const check::Strategy strategy = threads == 0
                                         ? check::Strategy::kSequentialDFS
                                         : check::Strategy::kParallelBFS;
    MetricsRegistry registry;
    const check::CheckReport report =
        run_with_registry(team_request(4, 1, /*symmetry=*/true), strategy,
                          threads, registry);
    EXPECT_TRUE(report.clean) << check::strategy_name(strategy);
    expect_exhaustive_contract(report);
    EXPECT_GT(counter_value(report.metrics, "engine.orbit_skipped"), 0u)
        << check::strategy_name(strategy);
    // The lock-free table counters are registered (resolve creates the cells
    // up front) even when uncontended; sequential runs must report zero CAS
    // retries — there is nobody to lose a claim to.
    if (strategy == check::Strategy::kSequentialDFS) {
      EXPECT_EQ(counter_value(report.metrics, "engine.cas_retries"), 0u);
    }
  }
}

TEST(MetricsContractTest, ViolatingRunCountsItsEdges) {
  for (const check::Strategy strategy :
       {check::Strategy::kSequentialDFS, check::Strategy::kParallelBFS}) {
    MetricsRegistry registry;
    const check::CheckReport report =
        run_with_registry(broken_request(), strategy, 2, registry);
    EXPECT_FALSE(report.clean);
    EXPECT_GE(counter_value(report.metrics, "engine.violation_edges"), 1u)
        << check::strategy_name(strategy);
    expect_exhaustive_contract(report);
  }
}

TEST(MetricsContractTest, RandomizedPublishesRunTotals) {
  MetricsRegistry registry;
  check::CheckRequest request = team_request(2, 2);
  request.runs = 5;
  request.seed = 7;
  const check::CheckReport report =
      run_with_registry(std::move(request), check::Strategy::kRandomized, 0, registry);
  EXPECT_EQ(counter_value(report.metrics, "random.runs"),
            static_cast<std::uint64_t>(report.runs));
  EXPECT_EQ(counter_value(report.metrics, "random.steps"),
            static_cast<std::uint64_t>(report.total_steps));
  EXPECT_EQ(counter_value(report.metrics, "random.crashes"),
            static_cast<std::uint64_t>(report.total_crashes));
}

TEST(MetricsContractTest, ReplayPublishesScheduleTotals) {
  // Find a real violation first, then replay its schedule under a registry.
  check::CheckRequest find = broken_request();
  find.strategy = check::Strategy::kSequentialDFS;
  const check::CheckReport found = check::check(std::move(find));
  ASSERT_TRUE(found.violation.has_value());
  ASSERT_FALSE(found.violation->schedule.empty());

  MetricsRegistry registry;
  check::CheckRequest request = broken_request();
  request.schedule = found.violation->schedule;
  const check::CheckReport report =
      run_with_registry(std::move(request), check::Strategy::kReplay, 0, registry);
  EXPECT_EQ(counter_value(report.metrics, "replay.steps"),
            found.violation->schedule.size());
  EXPECT_GE(counter_value(report.metrics, "replay.violations"), 1u);
}

TEST(MetricsContractTest, AutoEscalationTotalsIncludeTheProbe) {
  // A tiny probe limit forces kAuto to escalate. The engine continues from
  // the probe's store and counters (ParallelExplorer::escalate), so the registry
  // totals — the probe's flushes plus the engine's — must equal the escalated
  // run's ExplorerStats, and check.probe_visited counts the states the probe
  // expanded itself.
  MetricsRegistry registry;
  check::CheckRequest request = team_request(2, 3);
  request.auto_probe_limit = 100;
  request.num_threads = 2;
  request.obs.metrics = &registry;
  request.strategy = check::Strategy::kAuto;
  const check::CheckReport report = check::check(std::move(request));
  ASSERT_EQ(report.strategy, check::Strategy::kParallelBFS);
  expect_exhaustive_contract(report);
  // The probe may visit one state past its limit before noticing truncation.
  EXPECT_GT(counter_value(report.metrics, "check.probe_visited"), 0u);
  EXPECT_LE(counter_value(report.metrics, "check.probe_visited"), 101u);
}

TEST(MetricsContractTest, NoRegistryMeansEmptySnapshotInReport) {
  check::CheckRequest request = team_request(2, 1);
  request.strategy = check::Strategy::kSequentialDFS;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.metrics.empty());
}

}  // namespace
}  // namespace rcons::obs
