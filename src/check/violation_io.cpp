#include "check/violation_io.hpp"

#include <fstream>
#include <sstream>
#include <utility>

namespace rcons::check {

std::string format_violation_file(const ViolationFile& file) {
  std::ostringstream out;
  out << "# rcons violation file — replay with check_cli or Strategy::kReplay\n";
  out << "scenario " << format_scenario_line(file.scenario) << "\n";
  if (file.property != sim::PropertyKind::kNone) {
    out << "property " << sim::property_name(file.property);
    if (file.property_param != 0) out << " " << file.property_param;
    out << "\n";
  }
  out << "description " << file.description << "\n";
  for (const sim::ScheduleEvent& event : file.schedule) {
    switch (event.kind) {
      case sim::ScheduleEvent::Kind::kStep:
        out << "step " << event.process << "\n";
        break;
      case sim::ScheduleEvent::Kind::kCrash:
        out << "crash " << event.process << "\n";
        break;
      case sim::ScheduleEvent::Kind::kCrashAll:
        out << "crash-all\n";
        break;
    }
  }
  return out.str();
}

ViolationParse parse_violation_file(std::istream& in) {
  ViolationParse result;
  ViolationFile file;
  bool saw_scenario = false;
  bool saw_description = false;

  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    line_number += 1;
    if (!line.empty() && line[0] == '#') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // Trim a trailing carriage return from files written on other platforms.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }

    auto error = [&](const std::string& message) {
      result.errors.push_back("line " + std::to_string(line_number) + ": " + message);
    };

    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    if (keyword == "scenario") {
      std::string rest;
      std::getline(tokens, rest);
      std::vector<std::string> spec_errors;
      parse_scenario_line(rest, file.scenario, spec_errors);
      for (const std::string& message : spec_errors) error(message);
      saw_scenario = true;
    } else if (keyword == "property") {
      std::string name;
      if (!(tokens >> name)) {
        error("property needs a name");
        continue;
      }
      const sim::PropertyKind kind = sim::property_from_name(name);
      if (kind == sim::PropertyKind::kNone) {
        error("unknown property '" + name + "'");
        continue;
      }
      file.property = kind;
      std::int64_t param = 0;
      if (tokens >> param) file.property_param = param;
    } else if (keyword == "description") {
      std::string rest;
      std::getline(tokens, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
      if (rest.empty()) {
        error("description needs text");
      } else {
        file.description = rest;
        saw_description = true;
      }
    } else if (keyword == "step" || keyword == "crash") {
      int process = -1;
      if (!(tokens >> process) || process < 0) {
        error(keyword + " needs a process index >= 0");
        continue;
      }
      file.schedule.push_back(keyword == "step" ? sim::ScheduleEvent::step(process)
                                                : sim::ScheduleEvent::crash(process));
    } else if (keyword == "crash-all") {
      file.schedule.push_back(sim::ScheduleEvent::crash_all());
    } else {
      error("unknown keyword '" + keyword + "'");
    }
  }

  if (!saw_scenario) result.errors.push_back("missing scenario line");
  if (!saw_description) result.errors.push_back("missing description line");
  if (file.property == sim::PropertyKind::kNone) result.errors.push_back("missing property line");
  if (file.schedule.empty()) result.errors.push_back("schedule has no events");
  if (result.errors.empty()) result.file = std::move(file);
  return result;
}

ViolationParse parse_violation_file(const std::string& text) {
  std::istringstream in(text);
  return parse_violation_file(in);
}

ViolationParse load_violation_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ViolationParse result;
    result.errors.push_back("cannot open violation file: " + path);
    return result;
  }
  return parse_violation_file(in);
}

bool save_violation_file(const std::string& path, const ViolationFile& file) {
  std::ofstream out(path);
  if (!out) return false;
  out << format_violation_file(file);
  return static_cast<bool>(out);
}

}  // namespace rcons::check
