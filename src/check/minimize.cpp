#include "check/minimize.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "sim/replay.hpp"

namespace rcons::check {

namespace {

// Replays `schedule` on a pristine copy and returns the typed violation when
// the same property breaks, nullopt otherwise.
std::optional<sim::PropertyViolation> reproduces(
    const ScenarioSystem& system, const Budget& budget,
    const std::vector<sim::ScheduleEvent>& schedule, sim::PropertyKind property) {
  sim::ReplayReport report =
      sim::replay(system.memory, system.processes, schedule, system.properties, budget);
  if (!report.violation.has_value()) return std::nullopt;
  if (report.violation->property != property) return std::nullopt;
  return std::move(report.violation);
}

}  // namespace

MinimizeResult minimize(const ScenarioSystem& system, const Budget& budget,
                        const sim::Violation& violation) {
  MinimizeResult result;
  result.violation = violation;
  result.original_events = violation.schedule.size();

  const sim::PropertyKind property = violation.property;
  if (property == sim::PropertyKind::kNone) {
    return result;  // truncation marker etc. — nothing to do
  }

  // The schedule must reproduce as-is before deletion means anything
  // (symmetry-reduced counterexamples may not — see check/check.hpp).
  result.replays += 1;
  if (!reproduces(system, budget, violation.schedule, property)) return result;

  std::vector<sim::ScheduleEvent> schedule = violation.schedule;
  std::vector<sim::ScheduleEvent> candidate;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < schedule.size();) {
      candidate = schedule;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      result.replays += 1;
      if (auto broken = reproduces(system, budget, candidate, property)) {
        schedule.swap(candidate);
        result.violation.description = std::move(broken->description);
        result.violation.property_param = broken->param;
        shrunk = true;
        // retry the same index — it now holds the next event
      } else {
        i += 1;
      }
    }
  }

  result.removed_events = result.original_events - schedule.size();
  result.violation.schedule = std::move(schedule);
  return result;
}

}  // namespace rcons::check
