// Speedup benchmark: Strategy::kSequentialDFS vs Strategy::kParallelBFS at
// 1/2/4/8 threads through the check:: facade, on exhaustive team-consensus
// instances (the acceptance instance is Sn(3) with 3 processes and crash
// budget 2; Sn(5) with 5 processes and crash budget 1, 528,349 states, is
// the paper-scale instance whose rows give the multi-core scaling curve),
// plus a Strategy::kAuto row showing what the facade picks. Verifies that
// every configuration reports the same verdict and visited-state count
// before trusting a timing.
//
// The rows also report states/sec and the interned bytes/node, and a final
// section times symmetry reduction at paper scale: Sn(5) n=5 with crash
// budget 2 and its symmetry declaration (78,906 states), checked
// depth-first, by the worker loop and by kAuto, which must all agree.
//
// Plain chrono timing rather than Google Benchmark: each run is seconds long
// and we want a speedup table, not per-iteration statistics. Every timed
// configuration gets one untimed warmup run first (page cache, allocator
// arenas, branch predictors). Then an instance's configurations are timed
// round-robin, one sample each per round for `repeats` rounds, so host
// contention falls on all of them alike rather than on the back-to-back
// repeats of one. Each row reports the *median* of its samples beside their
// quartiles (`seconds_q1`, `seconds_q3`, and the rates they give,
// `states_per_sec_q1`, `states_per_sec_q3`; linear interpolation between
// samples). Results are also written machine-readably to
// BENCH_parallel_engine.json so the perf trajectory accumulates across
// revisions; the rows carry the hot-path counters (batch sizes, probe
// lengths, index growths) introduced with the batched engine.
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
// The JSON names the commit (`git rev-parse --short HEAD` in the source tree
// the bench was built from, with "-dirty" when that tree has uncommitted
// changes, or "unknown" outside a checkout) and the build type. Every row
// carries `hardware_concurrency` and a `wall_clock` stamp so an archived
// artifact is self-describing: a t=8 row produced on a 1-core
// runner is detectable (and such rows are flagged `oversubscribed`; the
// table prints their speedup as "-" since a thread count above the core
// count measures scheduler thrash, not parallel scaling).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
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

// The `p`-quantile (0..1) of the ascending `sorted`, interpolating linearly
// between the two nearest ranks.
double quantile(const std::vector<double>& sorted, double p) {
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  if (below + 1 >= sorted.size()) return sorted.back();
  const double fraction = rank - static_cast<double>(below);
  return sorted[below] + fraction * (sorted[below + 1] - sorted[below]);
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
  double seconds = 0.0;  // median of the timed samples
  double seconds_q1 = 0.0;
  double seconds_q3 = 0.0;
  engine::ExplorerStats stats;
};

// One configuration of an instance: a strategy and a requested thread
// count (0 = the facade's default).
struct Config {
  check::Strategy strategy;
  int threads;
};

// Times every configuration of `instance` round-robin for `repeats` rounds,
// after one warmup run each (see the file comment): the outcomes, in
// `configs` order, carry each one's median and quartiles.
std::vector<RunOutcome> timed(const Instance& instance, const std::vector<Config>& configs,
                              int repeats, bool symmetry = false) {
  for (const Config& config : configs) {
    check::check(make_request(instance, config.strategy, config.threads, symmetry));
  }
  std::vector<RunOutcome> outcomes(configs.size());
  std::vector<std::vector<double>> samples(configs.size());
  for (int round = 0; round < repeats; ++round) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const check::CheckReport report = check::check(
          make_request(instance, configs[i].strategy, configs[i].threads, symmetry));
      samples[i].push_back(report.seconds);
      RunOutcome& outcome = outcomes[i];
      outcome.clean = report.clean;
      outcome.visited = report.stats.visited;
      outcome.strategy = report.strategy;
      outcome.threads_used = report.threads_used;
      outcome.stats = report.stats;
    }
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::sort(samples[i].begin(), samples[i].end());
    outcomes[i].seconds = quantile(samples[i], 0.5);
    outcomes[i].seconds_q1 = quantile(samples[i], 0.25);
    outcomes[i].seconds_q3 = quantile(samples[i], 0.75);
  }
  return outcomes;
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

// Runs `command` through the shell; its first output line, or "" when it
// fails.
std::string first_line_of(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char buffer[128] = {};
  const bool read = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  if (pclose(pipe) != 0 || !read) return "";
  std::string line = buffer;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line;
}

// The commit of the source tree this bench was built from.
std::string source_commit() {
  const std::string git = std::string("git -C '") + RCONS_SOURCE_DIR + "' ";
  const std::string commit = first_line_of(git + "rev-parse --short HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  const bool clean =
      first_line_of(git + "diff --quiet HEAD 2>/dev/null && echo clean") == "clean";
  return clean ? commit : commit + "-dirty";
}

// States per second at a run time of `seconds`: pass the median for the
// median rate, the third quartile of the times for its first quartile.
double states_per_sec(const RunOutcome& outcome, double seconds) {
  return seconds > 0.0 ? static_cast<double>(outcome.visited) / seconds : 0.0;
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
  // the largest state space of the 3-recording zoo types), a 4-process
  // instance, and the 5-process paper-scale instance, the only one large
  // enough for the thread counts to show.
  std::vector<Instance> instances;
  instances.push_back(make_instance("readable-stack", 3, 2));
  instances.push_back(make_instance("Sn(3)", 3, 2));
  instances.push_back(make_instance("Sn(4)", 4, 1));
  instances.push_back(make_instance("Sn(5)", 5, 1));
  // The symmetry section's instance; without its declaration it is too large
  // to check here.
  const Instance symmetric = make_instance("Sn(5)", 5, 2);
  const auto selected = [&](const Instance& instance) {
    return instance.label.find(filter) != std::string::npos;
  };
  std::erase_if(instances, [&](const Instance& instance) { return !selected(instance); });
  if (instances.empty() && !selected(symmetric)) {
    std::cerr << "--filter '" << filter << "' matches no instance\n";
    return 2;
  }

  util::Table table({"instance", "config", "verdict", "visited", "time(s)", "q1-q3(s)",
                     "states/s", "q1-q3(states/s)", "B/node", "batch", "probe", "speedup"});
  bool verdicts_consistent = true;

  const unsigned hardware_threads = std::thread::hardware_concurrency();

  std::ofstream json_file("BENCH_parallel_engine.json");
  util::JsonWriter json(json_file);
  json.begin_object();
  json.key_value("bench", "parallel_engine");
  json.key_value("commit", source_commit());
  json.key_value("build_type", RCONS_BUILD_TYPE);
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
                   fixed(outcome.seconds_q1, 3) + "-" + fixed(outcome.seconds_q3, 3),
                   fixed(states_per_sec(outcome, outcome.seconds), 0),
                   fixed(states_per_sec(outcome, outcome.seconds_q3), 0) + "-" +
                       fixed(states_per_sec(outcome, outcome.seconds_q1), 0),
                   fixed(bytes_per_node, 1), fixed(avg_batch, 1), fixed(avg_probe, 2),
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
    json.key_value("seconds_q1", outcome.seconds_q1);
    json.key_value("seconds_q3", outcome.seconds_q3);
    json.key_value("states_per_sec", states_per_sec(outcome, outcome.seconds));
    json.key_value("states_per_sec_q1", states_per_sec(outcome, outcome.seconds_q3));
    json.key_value("states_per_sec_q3", states_per_sec(outcome, outcome.seconds_q1));
    json.key_value("speedup", speedup);
    json.key_value("store_nodes", stats.store_nodes);
    json.key_value("store_bytes_per_node", bytes_per_node);
    json.key_value("canonical_hit_rate", ratio(stats.canonical_hits, stats.encodes));
    json.key_value("avg_push_batch", avg_batch);
    json.key_value("avg_probe_length", avg_probe);
    json.key_value("max_probe_length", stats.max_probe);
    json.key_value("table_rehashes", stats.rehashes);
    json.key_value("orbit_skipped", stats.orbit_skipped);
    json.key_value("cas_retries", stats.cas_retries);
    json.end_object();
  };

  for (const Instance& instance : instances) {
    const std::vector<Config> configs = {{check::Strategy::kSequentialDFS, 0},
                                         {check::Strategy::kParallelBFS, 1},
                                         {check::Strategy::kParallelBFS, 2},
                                         {check::Strategy::kParallelBFS, 4},
                                         {check::Strategy::kParallelBFS, 8},
                                         {check::Strategy::kAuto, 0}};
    const std::vector<RunOutcome> outcomes = timed(instance, configs, repeats);
    const RunOutcome& sequential = outcomes.front();
    emit(instance, "sequential", sequential, 1.0);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      const RunOutcome& outcome = outcomes[i];
      if (outcome.clean != sequential.clean || outcome.visited != sequential.visited) {
        verdicts_consistent = false;
      }
      // What does kAuto do with this instance? (Probe + escalation included
      // in its wall time.)
      const std::string label =
          configs[i].strategy == check::Strategy::kAuto
              ? std::string("auto -> ") + check::strategy_name(outcome.strategy)
              : "parallel t=" + std::to_string(configs[i].threads);
      emit(instance, label, outcome, sequential.seconds / outcome.seconds);
    }
  }

  // --- Symmetry reduction at paper scale -----------------------------------
  //
  // Sn(5) n=5 crashes=2 with its symmetry declaration: interchangeable
  // same-team roles canonicalize, so the reduced graph has 78,906 states.
  // The depth-first run, the worker loop and kAuto must agree on its verdict
  // and visited count (both are order-free, ExplorerStats). The rows join the
  // main array; the summary gets its own object below. Skipped when --filter
  // drops the instance.
  std::string symmetry_summary;
  if (selected(symmetric)) {
    const std::vector<RunOutcome> outcomes =
        timed(symmetric,
              {{check::Strategy::kSequentialDFS, 0},
               {check::Strategy::kParallelBFS, 0},
               {check::Strategy::kAuto, 0}},
              repeats, /*symmetry=*/true);
    const RunOutcome& sequential = outcomes[0];
    const RunOutcome& parallel = outcomes[1];
    const RunOutcome& automatic = outcomes[2];
    emit(symmetric, "sequential+symmetry", sequential, 1.0);
    emit(symmetric, "parallel+symmetry", parallel, sequential.seconds / parallel.seconds);
    emit(symmetric,
         std::string("auto+symmetry -> ") + check::strategy_name(automatic.strategy),
         automatic, sequential.seconds / automatic.seconds);
    for (const RunOutcome* outcome : {&parallel, &automatic}) {
      if (outcome->clean != sequential.clean || outcome->visited != sequential.visited) {
        verdicts_consistent = false;
      }
    }
    json.end_array();

    json.key("canonicalization");
    json.begin_object();
    json.key_value("instance", symmetric.label);
    json.key_value("visited_reduced", sequential.visited);
    json.key_value("canonical_hit_rate",
                   ratio(sequential.stats.canonical_hits, sequential.stats.encodes));
    json.key_value("orbit_skipped", sequential.stats.orbit_skipped);
    json.end_object();
    symmetry_summary = "\nSymmetry reduction on " + symmetric.label + ": " +
                       std::to_string(sequential.visited) + " states, " +
                       fixed(100.0 * ratio(sequential.stats.canonical_hits,
                                           sequential.stats.encodes),
                             1) +
                       "% of encodings canonicalized\n";
  } else {
    json.end_array();
  }

  json.key_value("verdicts_consistent", verdicts_consistent);
  json.end_object();
  json_file << "\n";

  table.print(std::cout);
  std::cout << symmetry_summary;
  if (!verdicts_consistent) {
    std::cout << "\nERROR: configurations disagreed on verdict or visited-state "
                 "count.\n";
    return 1;
  }
  std::cout << "\nAll configurations agree on verdict and visited-state count.\n"
            << "Machine-readable results: BENCH_parallel_engine.json\n";
  return 0;
}
