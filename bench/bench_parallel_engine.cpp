// Speedup benchmark: Strategy::kSequentialDFS vs Strategy::kParallelBFS at
// 1/2/4/8 threads through the check:: facade, on exhaustive team-consensus
// instances (the acceptance instance is Sn(3) with 3 processes and crash
// budget 2), plus a Strategy::kAuto row showing what the facade picks.
// Verifies that every configuration reports the same verdict and
// visited-state count before trusting a timing.
//
// The rows also report states/sec and the interned bytes/node, and a final
// section measures symmetry reduction: the team-consensus n=4 instance
// re-checked with its symmetry declaration attached must shrink the visited
// set without changing the verdict.
//
// Plain chrono timing rather than Google Benchmark: each run is seconds long
// and we want a speedup table, not per-iteration statistics. Every timed
// configuration gets one untimed warmup run first (page cache, allocator
// arenas, branch predictors), then `repeats` samples whose *median* is
// reported. Results are also written machine-readably to
// BENCH_parallel_engine.json so the perf trajectory accumulates across
// revisions; the rows carry the hot-path counters (batch sizes, dedup-cache
// hit rate, probe lengths) introduced with the batched engine.
//
// Usage: bench_parallel_engine [--repeats N] [--filter SUBSTR] [N]
//   --repeats N     timed samples per configuration (default 3, min 1)
//   --filter SUBSTR only run instances whose label contains SUBSTR
//   N               positional alias for --repeats (back-compat)
//
// Exits non-zero when any configuration disagrees on verdict or
// visited-state count (verdicts_consistent:false in the JSON) — the CI bench
// smoke job relies on this.
//
// Every JSON row carries `hardware_concurrency` and a `wall_clock` stamp so
// an archived artifact is self-describing: a t=8 row produced on a 1-core
// runner is detectable (and such rows are flagged `oversubscribed`; the
// table prints their speedup as "-" since a thread count above the core
// count measures scheduler thrash, not parallel scaling).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace rcons;

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

struct Instance {
  std::string label;
  rc::TeamConsensusSystem system;
  int crash_budget;
};

Instance make_instance(const std::string& type_name, int n, int crash_budget) {
  auto type = typesys::make_type(type_name);
  RCONS_ASSERT(type != nullptr);
  Instance instance;
  instance.label = type_name + " n=" + std::to_string(n) +
                   " crashes=" + std::to_string(crash_budget);
  instance.system = rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  instance.crash_budget = crash_budget;
  return instance;
}

double median_seconds(std::vector<double> samples) {
  for (std::size_t i = 1; i < samples.size(); ++i) {
    for (std::size_t j = i; j > 0 && samples[j] < samples[j - 1]; --j) {
      std::swap(samples[j], samples[j - 1]);
    }
  }
  return samples[samples.size() / 2];
}

check::CheckRequest make_request(const Instance& instance, check::Strategy strategy,
                                 int threads, bool symmetry = false) {
  check::CheckRequest request;
  request.system.memory = instance.system.memory;
  request.system.processes = instance.system.processes;
  request.system.properties.valid_outputs = {kInputA, kInputB};
  if (symmetry) request.system.symmetry_classes = instance.system.symmetry_classes;
  request.budget.crash_budget = instance.crash_budget;
  request.strategy = strategy;
  request.num_threads = threads;
  return request;
}

struct RunOutcome {
  bool clean = false;
  std::uint64_t visited = 0;
  check::Strategy strategy = check::Strategy::kAuto;
  // Worker threads the backend actually resolved and ran with
  // (CheckReport::threads_used) — rows report this, never the requested
  // count, so a "threads=0 (auto)" request still produces an honest row.
  int threads_used = 0;
  double seconds = 0.0;
  engine::ExplorerStats stats;
};

RunOutcome timed(const Instance& instance, check::Strategy strategy, int threads,
                 int repeats, bool symmetry = false) {
  RunOutcome outcome;
  // One untimed warmup run, then `repeats` timed samples; the median is
  // reported so a single noisy sample cannot fake (or hide) a regression.
  check::check(make_request(instance, strategy, threads, symmetry));
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const check::CheckReport report =
        check::check(make_request(instance, strategy, threads, symmetry));
    samples.push_back(report.seconds);
    outcome.clean = report.clean;
    outcome.visited = report.stats.visited;
    outcome.strategy = report.strategy;
    outcome.threads_used = report.threads_used;
    outcome.stats = report.stats;
  }
  outcome.seconds = median_seconds(std::move(samples));
  return outcome;
}

// num / den, 0 when den is 0.
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string fixed(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << std::fixed << value;
  return out.str();
}

// UTC wall-clock stamp (ISO 8601) so archived bench artifacts are dateable.
std::string iso8601_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

double states_per_sec(const RunOutcome& outcome) {
  return outcome.seconds > 0.0
             ? static_cast<double>(outcome.visited) / outcome.seconds
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 3;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      // A typo'd or value-less flag must not silently become "repeats=0".
      std::cerr << "unknown or incomplete argument: " << arg
                << "\nusage: bench_parallel_engine [--repeats N] "
                   "[--filter SUBSTR] [N]\n";
      return 2;
    } else {
      repeats = std::atoi(argv[i]);  // positional back-compat
    }
  }
  if (repeats < 1) repeats = 1;

  std::cout << "=== Parallel exploration engine — speedup via the check:: facade ===\n"
            << "Hardware concurrency: " << std::thread::hardware_concurrency()
            << " (speedup beyond that count is not expected)\n"
            << "Repeats: " << repeats << " (median of timed samples, after one "
            << "warmup run per configuration)\n\n";

  // 3-process, crash-budget-2 team-consensus instances (readable-stack has
  // the largest state space of the 3-recording zoo types), plus a 4-process
  // instance for a larger-state-space scaling read.
  std::vector<Instance> instances;
  instances.push_back(make_instance("readable-stack", 3, 2));
  instances.push_back(make_instance("Sn(3)", 3, 2));
  instances.push_back(make_instance("Sn(4)", 4, 1));
  if (!filter.empty()) {
    std::erase_if(instances, [&](const Instance& instance) {
      return instance.label.find(filter) == std::string::npos;
    });
    if (instances.empty()) {
      std::cerr << "--filter '" << filter << "' matches no instance\n";
      return 2;
    }
  }

  util::Table table({"instance", "config", "verdict", "visited", "time(s)",
                     "states/s", "B/node", "batch", "cache%", "probe", "speedup"});
  bool verdicts_consistent = true;

  const unsigned hardware_threads = std::thread::hardware_concurrency();

  std::ofstream json_file("BENCH_parallel_engine.json");
  util::JsonWriter json(json_file);
  json.begin_object();
  json.key_value("bench", "parallel_engine");
  json.key_value("repeats", repeats);
  json.key_value("hardware_concurrency",
                 static_cast<std::uint64_t>(hardware_threads));
  json.key_value("wall_clock", iso8601_now());
  json.key("rows");
  json.begin_array();

  auto emit = [&](const Instance& instance, const std::string& config_label,
                  const RunOutcome& outcome, double speedup) {
    const engine::ExplorerStats& stats = outcome.stats;
    const double bytes_per_node = ratio(stats.store_bytes, stats.store_nodes);
    const double avg_batch = ratio(stats.batched_items, stats.batches);
    const double cache_hit_rate = ratio(stats.cache_hits, stats.cache_probes);
    const double avg_probe = ratio(stats.probe_total, stats.probe_ops);
    const int threads = outcome.threads_used;
    // Running more workers than the machine has cores measures scheduler
    // thrash, not scaling: flag the row and withhold the speedup figure.
    const bool oversubscribed =
        threads > 0 && static_cast<unsigned>(threads) > hardware_threads;
    table.add_row({instance.label,
                   oversubscribed ? config_label + " (oversub)" : config_label,
                   outcome.clean ? "clean" : "VIOLATION",
                   std::to_string(outcome.visited), fixed(outcome.seconds, 3),
                   fixed(states_per_sec(outcome), 0),
                   fixed(bytes_per_node, 1), fixed(avg_batch, 1),
                   fixed(100.0 * cache_hit_rate, 0), fixed(avg_probe, 2),
                   oversubscribed ? "-" : fixed(speedup, 3) + "x"});
    json.begin_object();
    json.key_value("instance", instance.label);
    json.key_value("config", config_label);
    json.key_value("strategy", check::strategy_name(outcome.strategy));
    json.key_value("threads", threads);
    json.key_value("hardware_concurrency",
                   static_cast<std::uint64_t>(hardware_threads));
    json.key_value("wall_clock", iso8601_now());
    json.key_value("oversubscribed", oversubscribed);
    json.key_value("verdict", outcome.clean ? "clean" : "violation");
    json.key_value("visited", outcome.visited);
    json.key_value("seconds", outcome.seconds);
    json.key_value("states_per_sec", states_per_sec(outcome));
    json.key_value("speedup", speedup);
    json.key_value("store_nodes", stats.store_nodes);
    json.key_value("store_bytes_per_node", bytes_per_node);
    json.key_value("canonical_hit_rate", ratio(stats.canonical_hits, stats.encodes));
    json.key_value("avg_push_batch", avg_batch);
    json.key_value("dedup_cache_hit_rate", cache_hit_rate);
    json.key_value("avg_probe_length", avg_probe);
    json.key_value("max_probe_length", stats.max_probe);
    json.key_value("table_rehashes", stats.rehashes);
    json.key_value("orbit_skipped", stats.orbit_skipped);
    json.key_value("cas_retries", stats.cas_retries);
    json.key_value("migration_stripes", stats.migration_stripes);
    json.end_object();
  };

  for (const Instance& instance : instances) {
    const RunOutcome sequential =
        timed(instance, check::Strategy::kSequentialDFS, 0, repeats);
    emit(instance, "sequential", sequential, 1.0);

    for (const int threads : {1, 2, 4, 8}) {
      const RunOutcome parallel =
          timed(instance, check::Strategy::kParallelBFS, threads, repeats);
      if (parallel.clean != sequential.clean ||
          parallel.visited != sequential.visited) {
        verdicts_consistent = false;
      }
      emit(instance, "parallel t=" + std::to_string(threads), parallel,
           sequential.seconds / parallel.seconds);
    }

    // What does kAuto do with this instance? (Probe + escalation included in
    // its wall time.)
    const RunOutcome automatic = timed(instance, check::Strategy::kAuto, 0, repeats);
    if (automatic.clean != sequential.clean ||
        automatic.visited != sequential.visited) {
      verdicts_consistent = false;
    }
    emit(instance,
         std::string("auto -> ") + check::strategy_name(automatic.strategy),
         automatic, sequential.seconds / automatic.seconds);
  }

  // --- Symmetry reduction on the n=4 acceptance instance ------------------
  //
  // The Sn(4) n=4 team-consensus instance re-checked with its symmetry
  // declaration: interchangeable same-team roles canonicalize, so the
  // visited set must shrink (the verdict must not change). The row joins the
  // main array (emit writes into it); the summary gets its own object below.
  const Instance& n4 = instances.back();
  const RunOutcome plain = timed(n4, check::Strategy::kParallelBFS, 0, repeats);
  const RunOutcome reduced =
      timed(n4, check::Strategy::kParallelBFS, 0, repeats, /*symmetry=*/true);
  const bool symmetry_ok =
      reduced.clean == plain.clean && reduced.visited <= plain.visited;
  verdicts_consistent = verdicts_consistent && symmetry_ok;
  // Speedup baseline: the plain parallel run at the same resolved thread
  // count, so the figure isolates what the reduction itself buys.
  emit(n4, "parallel+symmetry", reduced,
       plain.seconds > 0 ? plain.seconds / reduced.seconds : 0.0);

  json.end_array();

  json.key("canonicalization");
  json.begin_object();
  json.key_value("instance", n4.label);
  json.key_value("visited_plain", plain.visited);
  json.key_value("visited_reduced", reduced.visited);
  json.key_value("reduction",
                 plain.visited > 0
                     ? 1.0 - static_cast<double>(reduced.visited) /
                                 static_cast<double>(plain.visited)
                     : 0.0);
  json.key_value("canonical_hit_rate",
                 ratio(reduced.stats.canonical_hits, reduced.stats.encodes));
  json.key_value("verdict_preserved", reduced.clean == plain.clean);
  json.end_object();

  json.key_value("verdicts_consistent", verdicts_consistent);
  json.end_object();
  json_file << "\n";

  table.print(std::cout);
  std::cout << "\nSymmetry reduction on " << n4.label << ": " << plain.visited
            << " -> " << reduced.visited << " states ("
            << fixed(plain.visited > 0
                         ? 100.0 * (1.0 - static_cast<double>(reduced.visited) /
                                              static_cast<double>(plain.visited))
                         : 0.0,
                     1)
            << "% fewer)\n";
  if (!verdicts_consistent) {
    std::cout << "\nERROR: configurations disagreed on verdict or visited-state "
                 "count (or symmetry reduction grew the visited set).\n";
    return 1;
  }
  std::cout << "\nAll configurations agree on verdict and visited-state count.\n"
            << "Machine-readable results: BENCH_parallel_engine.json\n";
  return 0;
}
