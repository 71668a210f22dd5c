#include "check/check.hpp"

#include <chrono>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/parallel_explorer.hpp"
#include "obs/trace.hpp"
#include "sim/random_runner.hpp"
#include "sim/replay.hpp"
#include "util/assert.hpp"

namespace rcons::check {

namespace {

using Clock = std::chrono::steady_clock;

sim::ExplorerConfig explorer_config(const CheckRequest& request) {
  sim::ExplorerConfig config(request.budget, request.system.properties);
  config.symmetry_classes = request.system.symmetry_classes;
  config.obs = request.obs;
  config.sentinel_interval_ms = request.sentinel_interval_ms;
  config.watchdog_stall_intervals = request.watchdog_stall_intervals;
  config.checkpoint_path = request.checkpoint_path;
  config.checkpoint_every = request.checkpoint_every;
  config.checkpoint_label = request.checkpoint_label;
  config.resume = request.resume;
  config.fault = request.fault;
  config.num_threads = request.num_threads;
  return config;
}

engine::ParallelExplorer make_explorer(const CheckRequest& request) {
  return engine::ParallelExplorer(request.system.memory, request.system.processes,
                                  explorer_config(request));
}

// The depth-first traversal reports as kSequentialDFS on one thread, the
// worker loop as kParallelBFS on the engine's resolved thread count.
CheckReport exhaustive_report(const engine::ParallelExplorer& explorer, bool parallel,
                              std::optional<sim::Violation> violation) {
  CheckReport report;
  report.strategy = parallel ? Strategy::kParallelBFS : Strategy::kSequentialDFS;
  report.threads_used = parallel ? explorer.num_threads() : 1;
  report.violation = std::move(violation);
  report.stats = explorer.stats();
  report.clean = !report.violation.has_value();
  report.complete = !report.stats.truncated();
  return report;
}

CheckReport run_sequential(const CheckRequest& request) {
  engine::ParallelExplorer explorer = make_explorer(request);
  obs::Span span(request.obs.tracer, 0, "explore");
  return exhaustive_report(explorer, false, explorer.run_dfs());
}

CheckReport run_parallel(const CheckRequest& request) {
  engine::ParallelExplorer explorer = make_explorer(request);
  obs::Span span(request.obs.tracer, 0, "explore");
  return exhaustive_report(explorer, true, explorer.run());
}

CheckReport run_randomized(const CheckRequest& request) {
  sim::RandomRunConfig config;
  static_cast<Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.crash_per_mille = request.crash_per_mille;
  config.max_total_steps = request.max_total_steps;
  config.obs = request.obs;

  CheckReport report;
  report.strategy = Strategy::kRandomized;
  report.complete = false;  // sampling proves nothing exhaustively
  const int runs = request.runs < 1 ? 1 : request.runs;
  for (int run = 0; run < runs; ++run) {
    config.seed = request.seed + static_cast<std::uint64_t>(run);
    sim::RandomRunReport run_report = sim::run_random(
        request.system.memory, request.system.processes, config);
    report.runs += 1;
    report.total_steps += run_report.steps;
    report.total_crashes += run_report.crashes;
    report.outputs = std::move(run_report.outputs);
    if (run_report.violation.has_value()) {
      report.violation = sim::Violation{std::move(run_report.violation->description),
                                        run_report.violation->property,
                                        run_report.violation->param,
                                        std::move(run_report.schedule)};
      break;
    }
    // A run stopped by a violation is not "incomplete" — that field counts
    // runs that hit max_total_steps without everyone deciding.
    report.incomplete_runs += run_report.all_decided ? 0 : 1;
  }
  report.clean = !report.violation.has_value();
  return report;
}

CheckReport run_replay(const CheckRequest& request) {
  sim::ReplayReport replay_report =
      sim::replay(request.system.memory, request.system.processes, request.schedule,
                  request.system.properties, request.budget, request.obs);
  CheckReport report;
  report.strategy = Strategy::kReplay;
  report.complete = false;  // one schedule, not the whole graph
  report.outputs = std::move(replay_report.outputs);
  report.decisions = std::move(replay_report.decisions);
  report.rejected = replay_report.rejected;
  if (replay_report.violation.has_value()) {
    report.violation = sim::Violation{std::move(replay_report.violation->description),
                                      replay_report.violation->property,
                                      replay_report.violation->param,
                                      request.schedule};
  }
  report.clean = !report.violation.has_value();
  return report;
}

CheckReport run_auto(const CheckRequest& request) {
  // Checkpointing and resume live in the worker loop only — route straight
  // there, skipping the probe (a probe would waste the budget of exactly the
  // long runs checkpoints exist for).
  if (!request.checkpoint_path.empty() || request.resume != nullptr) {
    return run_parallel(request);
  }
  // Estimate the state-space size with a bounded depth-first probe: explore
  // at most `auto_probe_limit` states. A probe that finishes (verdict, clean
  // or not) IS the sequential check of a small instance, so return it
  // directly, as is a probe stopped by the real budget or by a time or
  // memory limit. Only a probe stopped on its own cap escalates: the worker
  // loop continues from the probe's store and DFS-stack cut, inside the same
  // deadline.
  engine::ParallelExplorer explorer = make_explorer(request);
  std::optional<sim::Violation> violation;
  {
    obs::Span span(request.obs.tracer, 0, "probe");
    violation = explorer.run_dfs(request.auto_probe_limit);
  }
  if (!explorer.can_escalate()) {
    return exhaustive_report(explorer, false, std::move(violation));
  }
  if (request.obs.tracer != nullptr) request.obs.tracer->instant(0, "auto_select");
  if (request.obs.metrics != nullptr) {
    // States the probe expanded itself; the deferred ones are the workers'.
    request.obs.metrics->counter("check.probe_visited")
        .add(0, explorer.stats().visited - explorer.deferred());
  }
  obs::Span span(request.obs.tracer, 0, "explore");
  return exhaustive_report(explorer, true, explorer.escalate());
}

}  // namespace

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kSequentialDFS:
      return "sequential-dfs";
    case Strategy::kParallelBFS:
      return "parallel-bfs";
    case Strategy::kRandomized:
      return "randomized";
    case Strategy::kReplay:
      return "replay";
  }
  return "unknown";
}

std::uint64_t checkpoint_config_hash(const CheckRequest& request) {
  return engine::checkpoint_config_hash(explorer_config(request));
}

CheckReport check(CheckRequest request) {
  RCONS_ASSERT_MSG(!request.system.processes.empty(),
                   "a CheckRequest needs at least one process");
  const auto start = Clock::now();
  CheckReport report;
  {
    obs::Span span(request.obs.tracer, 0, "check");
    switch (request.strategy) {
      case Strategy::kAuto:
        report = run_auto(request);
        break;
      case Strategy::kSequentialDFS:
        report = run_sequential(request);
        break;
      case Strategy::kParallelBFS:
        report = run_parallel(request);
        break;
      case Strategy::kRandomized:
        report = run_randomized(request);
        break;
      case Strategy::kReplay:
        report = run_replay(request);
        break;
    }
  }
  if (request.obs.metrics != nullptr) {
    report.metrics = request.obs.metrics->snapshot();
  }
  report.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return report;
}

}  // namespace rcons::check
