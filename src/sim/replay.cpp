#include "sim/replay.hpp"

#include <algorithm>

#include "engine/expand.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcons::sim {

ReplayReport replay(Memory memory, std::vector<Process> processes,
                    const std::vector<ScheduleEvent>& schedule,
                    const PropertySet& properties, const check::Budget& budget,
                    obs::Hooks obs) {
  obs::Span span(obs.tracer, 0, "replay");
  const ExplorerConfig config(budget, properties);
  ReplayReport report;
  report.decisions.assign(processes.size(), std::nullopt);
  engine::Node node =
      engine::make_root(std::move(memory), std::move(processes), properties);

  std::vector<ScheduleEvent> legal;
  std::size_t applied = 0;
  for (; applied < schedule.size() && !report.violation; ++applied) {
    const ScheduleEvent& event = schedule[applied];
    engine::enumerate_events(node, config, legal);
    if (std::find(legal.begin(), legal.end(), event) == legal.end()) {
      report.rejected = applied;
      break;
    }
    StepResult result;
    report.violation = engine::apply_event(node, event, config, &result);
    if (event.kind == ScheduleEvent::Kind::kCrashAll) {
      report.decisions.assign(report.decisions.size(), std::nullopt);
    } else if (event.kind == ScheduleEvent::Kind::kCrash) {
      report.decisions[static_cast<std::size_t>(event.process)] = std::nullopt;
    } else if (result.kind == StepResult::Kind::kDecided) {
      report.decisions[static_cast<std::size_t>(event.process)] = result.decision;
      report.outputs.push_back(result.decision);
    }
  }
  report.final_memory = std::move(node.memory);
  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& registry = *obs.metrics;
    if (applied > 0) registry.counter("replay.steps").add(0, applied);
    if (!report.outputs.empty()) {
      registry.counter("replay.outputs").add(0, report.outputs.size());
    }
    if (report.violation.has_value()) registry.counter("replay.violations").add(0, 1);
  }
  return report;
}

}  // namespace rcons::sim
