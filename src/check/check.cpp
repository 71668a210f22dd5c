#include "check/check.hpp"

#include <chrono>
#include <utility>

#include "engine/handoff.hpp"
#include "engine/parallel_explorer.hpp"
#include "engine/sentinel.hpp"
#include "obs/trace.hpp"
#include "sim/explorer.hpp"
#include "sim/random_runner.hpp"
#include "sim/replay.hpp"
#include "util/assert.hpp"

namespace rcons::check {

namespace {

using Clock = std::chrono::steady_clock;

sim::ExplorerConfig explorer_config(const CheckRequest& request) {
  sim::ExplorerConfig config;
  static_cast<Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.symmetry_classes = request.system.symmetry_classes;
  config.obs = request.obs;
  config.sentinel_interval_ms = request.sentinel_interval_ms;
  config.watchdog_stall_intervals = request.watchdog_stall_intervals;
  config.checkpoint_path = request.checkpoint_path;
  config.checkpoint_every = request.checkpoint_every;
  config.checkpoint_label = request.checkpoint_label;
  config.resume = request.resume;
  config.fault = request.fault;
  return config;
}

CheckReport run_sequential(const CheckRequest& request, std::uint64_t max_visited,
                           const char* span_name = "explore",
                           engine::ProbeHandoff* handoff = nullptr) {
  sim::ExplorerConfig config = explorer_config(request);
  config.max_visited = static_cast<std::int64_t>(max_visited);
  sim::Explorer explorer(request.system.memory, request.system.processes, config);
  CheckReport report;
  report.strategy = Strategy::kSequentialDFS;
  {
    obs::Span span(request.obs.tracer, 0, span_name);
    report.violation = explorer.run(handoff);
  }
  report.stats = explorer.stats();
  report.threads_used = 1;
  report.clean = !report.violation.has_value();
  report.complete = !report.stats.truncated;
  return report;
}

engine::ParallelExplorerConfig parallel_config(const CheckRequest& request) {
  engine::ParallelExplorerConfig config;
  static_cast<sim::ExplorerConfig&>(config) = explorer_config(request);
  config.num_threads = request.num_threads;
  config.shard_bits = request.shard_bits;
  return config;
}

// `handoff`, when set, continues a kAuto probe instead of starting from the root.
CheckReport run_parallel(const CheckRequest& request, engine::ParallelExplorerConfig config,
                         engine::ProbeHandoff* handoff = nullptr) {
  engine::ParallelExplorer explorer(request.system.memory, request.system.processes,
                                    std::move(config));
  CheckReport report;
  report.strategy = Strategy::kParallelBFS;
  {
    obs::Span span(request.obs.tracer, 0, "explore");
    report.violation = handoff != nullptr ? explorer.run(std::move(*handoff)) : explorer.run();
  }
  report.stats = explorer.stats();
  report.threads_used = explorer.num_threads();
  report.clean = !report.violation.has_value();
  report.complete = !report.stats.truncated;
  return report;
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
                  request.system.properties, request.budget.max_steps_per_run,
                  request.obs);
  CheckReport report;
  report.strategy = Strategy::kReplay;
  report.complete = false;  // one schedule, not the whole graph
  report.outputs = std::move(replay_report.outputs);
  report.decisions = std::move(replay_report.decisions);
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
  // Checkpointing and resume live in the parallel engine only — route
  // straight there, skipping the probe (a probe would waste the budget of
  // exactly the long runs checkpoints exist for).
  if (!request.checkpoint_path.empty() || request.resume != nullptr) {
    return run_parallel(request, parallel_config(request));
  }
  // Estimate the state-space size with a bounded sequential probe: explore at
  // most `auto_probe_limit` states. A probe that finishes (verdict, clean or
  // not) IS the sequential check of a small instance, so return it directly,
  // as is a probe stopped by the real budget or by a time or memory limit.
  // Only a probe stopped on its own visited cap escalates: the parallel
  // engine continues from the probe's store and DFS-stack cut
  // (engine/handoff.hpp), inside what is left of one shared deadline.
  const std::uint64_t probe_limit =
      request.auto_probe_limit < request.budget.visited_cap()
          ? request.auto_probe_limit
          : request.budget.visited_cap();
  const bool may_escalate = probe_limit < request.budget.visited_cap();
  const std::int64_t deadline_ms =
      request.budget.time_limit_ms > 0
          ? engine::steady_now_ms() + request.budget.time_limit_ms
          : 0;
  engine::ProbeHandoff handoff;
  CheckReport probe =
      run_sequential(request, probe_limit, "probe", may_escalate ? &handoff : nullptr);
  if (!may_escalate || probe.stats.stop_reason != sim::StopReason::kVisitedCap) {
    return probe;
  }
  if (request.obs.tracer != nullptr) request.obs.tracer->instant(0, "auto_select");
  if (request.obs.metrics != nullptr) {
    // States the probe expanded itself; the deferred ones are the engine's.
    request.obs.metrics->counter("check.probe_visited")
        .add(0, probe.stats.visited - handoff.frontier.size());
  }
  engine::ParallelExplorerConfig config = parallel_config(request);
  if (deadline_ms != 0) {
    // What the probe left of the deadline; 0 would mean "unlimited".
    const std::int64_t left = deadline_ms - engine::steady_now_ms();
    config.time_limit_ms = left > 0 ? left : 1;
  }
  return run_parallel(request, std::move(config), &handoff);
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
        report = run_sequential(request, request.budget.max_visited);
        break;
      case Strategy::kParallelBFS:
        report = run_parallel(request, parallel_config(request));
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
