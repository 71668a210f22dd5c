#include "sim/schedule.hpp"

#include <sstream>

#include "sim/explorer_config.hpp"

namespace rcons::sim {

std::string format_schedule(const std::vector<ScheduleEvent>& schedule) {
  std::ostringstream out;
  for (const ScheduleEvent& event : schedule) {
    switch (event.kind) {
      case ScheduleEvent::Kind::kStep:
        out << "step(p" << event.process << ") ";
        break;
      case ScheduleEvent::Kind::kCrash:
        out << "CRASH(p" << event.process << ") ";
        break;
      case ScheduleEvent::Kind::kCrashAll:
        out << "CRASH(all) ";
        break;
    }
  }
  return out.str();
}

std::string Violation::trace() const { return format_schedule(schedule); }

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kVisitedCap:
      return "visited-cap";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kWatchdog:
      return "watchdog";
    case StopReason::kForcedStop:
      return "forced-stop";
  }
  return "unknown";
}

}  // namespace rcons::sim
