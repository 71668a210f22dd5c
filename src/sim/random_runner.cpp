#include "sim/random_runner.hpp"

#include <algorithm>

#include "engine/expand.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rcons::sim {

namespace {

RandomRunReport run_random_impl(Memory memory, std::vector<Process> processes,
                                const RandomRunConfig& config) {
  RCONS_ASSERT_MSG(config.crash_per_mille >= 0 && config.crash_per_mille <= 1000,
                   "crash_per_mille is a numerator over 1000");
  const ExplorerConfig engine_config(config, config.properties);
  util::Rng rng(config.seed);
  engine::Node node =
      engine::make_root(std::move(memory), std::move(processes), config.properties);
  RandomRunReport report;

  std::vector<ScheduleEvent> events;
  while (report.steps < config.max_total_steps) {
    if (engine::is_terminal(node)) {
      report.all_decided = true;
      return report;
    }
    // Steps come first in enumeration order, then the enabled crashes.
    engine::enumerate_events(node, engine_config, events);
    const auto steps = static_cast<std::uint64_t>(
        std::partition_point(events.begin(), events.end(),
                             [](const ScheduleEvent& event) {
                               return event.kind == ScheduleEvent::Kind::kStep;
                             }) -
        events.begin());
    const std::uint64_t crashes = events.size() - steps;
    const std::uint64_t pick =
        crashes > 0 && rng.chance(static_cast<std::uint64_t>(config.crash_per_mille), 1000)
            ? steps + rng.below(crashes)
            : rng.below(steps);
    const ScheduleEvent event = events[pick];

    StepResult result;
    auto violation = engine::apply_event(node, event, engine_config, &result);
    report.schedule.push_back(event);
    if (event.kind == ScheduleEvent::Kind::kStep) {
      report.steps += 1;
    } else {
      report.crashes += 1;
    }
    if (result.kind == StepResult::Kind::kDecided) report.outputs.push_back(result.decision);
    if (violation) {
      report.violation = std::move(violation);
      return report;
    }
  }
  return report;  // all_decided stays false: starvation/livelock suspicion
}

}  // namespace

RandomRunReport run_random(Memory memory, std::vector<Process> processes,
                           const RandomRunConfig& config) {
  // One "random_run" span per call on the coordinator lane; run_random is
  // called from one thread at a time (the check loop), matching the tracer's
  // single-writer-per-lane contract.
  obs::Span span(config.obs.tracer, 0, "random_run");
  RandomRunReport report = run_random_impl(std::move(memory), std::move(processes), config);
  if (config.obs.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config.obs.metrics;
    registry.counter("random.runs").add(0, 1);
    if (report.steps > 0) {
      registry.counter("random.steps")
          .add(0, static_cast<std::uint64_t>(report.steps));
    }
    if (report.crashes > 0) {
      registry.counter("random.crashes")
          .add(0, static_cast<std::uint64_t>(report.crashes));
    }
    if (report.violation.has_value()) registry.counter("random.violations").add(0, 1);
  }
  return report;
}

}  // namespace rcons::sim
