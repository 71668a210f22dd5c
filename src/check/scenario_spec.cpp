#include "check/scenario_spec.hpp"

#include <fstream>
#include <sstream>

#include "typesys/zoo.hpp"

namespace rcons::check {

namespace {

// Parses a non-negative integer; returns false on anything else (sign,
// trailing junk, overflow past int64).
bool parse_int(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  std::int64_t value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    if (value > (INT64_MAX - (ch - '0')) / 10) return false;
    value = value * 10 + (ch - '0');
  }
  out = value;
  return true;
}

}  // namespace

const char* scenario_algo_name(ScenarioAlgo algo) {
  switch (algo) {
    case ScenarioAlgo::kTeamConsensus:
      return "team";
    case ScenarioAlgo::kHaltingTournament:
      return "halting";
    case ScenarioAlgo::kNaiveRegister:
      return "naive-register";
    case ScenarioAlgo::kKSetTeamConsensus:
      return "k-set";
  }
  return "unknown";
}

sim::PropertySet spec_properties(const ScenarioSpec& spec) {
  if (spec.properties.empty()) return sim::PropertySet();  // the classic trio
  sim::PropertySet set = sim::PropertySet::none();
  for (const sim::PropertyKind kind : spec.properties) {
    std::int64_t param = 0;
    if (kind == sim::PropertyKind::kKSetAgreement) param = spec.k;
    set.add({kind, param});
  }
  return set;
}

Budget ScenarioSpec::budget() const {
  Budget out;
  out.crash_model = crash_model;
  out.crash_budget = crash_budget;
  if (max_steps_per_run >= 0) out.max_steps_per_run = max_steps_per_run;
  if (max_visited >= 0) out.max_visited = max_visited;
  if (time_limit_ms >= 0) out.time_limit_ms = time_limit_ms;
  if (mem_limit_mb >= 0) out.mem_limit_mb = mem_limit_mb;
  return out;
}

// Parses one spec line already known to be non-blank / non-comment. Errors
// accumulate in `errors` (a line can have several); returns the spec built
// from the fields that did parse.
void parse_scenario_line(const std::string& line, ScenarioSpec& spec,
                         std::vector<std::string>& errors) {
  bool saw_type = false;
  std::istringstream tokens(line);
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      errors.push_back("expected key=value, got '" + token + "'");
      continue;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    std::int64_t number = 0;
    if (key == "type") {
      saw_type = true;  // even an invalid value counts as "type was given"
      if (value.empty()) {
        errors.push_back("type= needs a value");
        continue;
      }
      if (typesys::make_type(value) == nullptr) {
        errors.push_back("unknown type '" + value + "'");
        continue;
      }
      spec.type = value;
    } else if (key == "name") {
      spec.name = value;
    } else if (key == "model") {
      if (value == "independent") {
        spec.crash_model = CrashModel::kIndependent;
      } else if (value == "simultaneous") {
        spec.crash_model = CrashModel::kSimultaneous;
      } else {
        errors.push_back("model must be independent or simultaneous, got '" + value +
                         "'");
      }
    } else if (key == "n") {
      if (!parse_int(value, number) || number < 2 || number > INT32_MAX) {
        errors.push_back("n must be an integer >= 2, got '" + value + "'");
      } else {
        spec.n = static_cast<int>(number);
      }
    } else if (key == "budget") {
      if (!parse_int(value, number) || number > INT32_MAX) {
        errors.push_back("budget must be an integer >= 0, got '" + value + "'");
      } else {
        spec.crash_budget = static_cast<int>(number);
      }
    } else if (key == "max_steps") {
      if (!parse_int(value, number) || number < 1) {
        errors.push_back("max_steps must be an integer >= 1, got '" + value + "'");
      } else {
        spec.max_steps_per_run = number;
      }
    } else if (key == "max_visited") {
      if (!parse_int(value, number) || number < 1) {
        errors.push_back("max_visited must be an integer >= 1, got '" + value + "'");
      } else {
        spec.max_visited = number;
      }
    } else if (key == "time_limit") {
      if (!parse_int(value, number) || number < 1) {
        errors.push_back("time_limit must be an integer >= 1 (milliseconds), got '" +
                         value + "'");
      } else {
        spec.time_limit_ms = number;
      }
    } else if (key == "mem_limit") {
      if (!parse_int(value, number) || number < 1) {
        errors.push_back("mem_limit must be an integer >= 1 (MiB), got '" + value +
                         "'");
      } else {
        spec.mem_limit_mb = number;
      }
    } else if (key == "algo") {
      if (value == "team") {
        spec.algo = ScenarioAlgo::kTeamConsensus;
      } else if (value == "halting") {
        spec.algo = ScenarioAlgo::kHaltingTournament;
      } else if (value == "naive-register") {
        spec.algo = ScenarioAlgo::kNaiveRegister;
      } else if (value == "k-set") {
        spec.algo = ScenarioAlgo::kKSetTeamConsensus;
      } else {
        errors.push_back("algo must be team, halting, naive-register or k-set, got '" +
                         value + "'");
      }
    } else if (key == "k") {
      if (!parse_int(value, number) || number < 2 || number > INT32_MAX) {
        errors.push_back("k must be an integer >= 2, got '" + value + "'");
      } else {
        spec.k = static_cast<int>(number);
      }
    } else if (key == "properties") {
      spec.properties.clear();
      const auto agreementish = [](sim::PropertyKind kind) {
        return kind == sim::PropertyKind::kAgreement ||
               kind == sim::PropertyKind::kKSetAgreement;
      };
      std::size_t begin = 0;
      while (begin <= value.size()) {
        const std::size_t comma = value.find(',', begin);
        const std::string item = value.substr(
            begin, comma == std::string::npos ? std::string::npos : comma - begin);
        begin = comma == std::string::npos ? value.size() + 1 : comma + 1;
        const sim::PropertyKind kind = sim::property_from_name(item);
        if (kind == sim::PropertyKind::kNone) {
          errors.push_back("unknown property '" + item +
                           "' (agreement, k-set-agreement, validity, wait-freedom, "
                           "at-most-once)");
          continue;
        }
        bool item_bad = false;
        for (const sim::PropertyKind seen : spec.properties) {
          if (seen == kind) {
            errors.push_back("duplicate property '" + item + "'");
            item_bad = true;
            break;
          }
          if (agreementish(kind) && agreementish(seen)) {
            errors.push_back("agreement and k-set-agreement are mutually exclusive");
            item_bad = true;
            break;
          }
        }
        if (!item_bad) spec.properties.push_back(kind);
      }
    } else if (key == "symmetry") {
      if (value == "on") {
        spec.symmetry = true;
      } else if (value == "off") {
        spec.symmetry = false;
      } else {
        errors.push_back("symmetry must be on or off, got '" + value + "'");
      }
    } else {
      errors.push_back("unknown key '" + key + "'");
    }
  }
  if (!saw_type) errors.push_back("missing required type=");

  // Cross-field validation (fields may appear in any order, so this must run
  // after the whole line is consumed).
  bool wants_k_set_property = false;
  for (const sim::PropertyKind kind : spec.properties) {
    wants_k_set_property =
        wants_k_set_property || kind == sim::PropertyKind::kKSetAgreement;
  }
  if (wants_k_set_property && spec.k == 0) {
    errors.push_back("properties=k-set-agreement needs k=<int> >= 2");
  }
  if (spec.algo == ScenarioAlgo::kKSetTeamConsensus) {
    if (spec.k == 0) {
      errors.push_back("algo=k-set needs k=<int> >= 2");
    } else if (spec.k > spec.n) {
      errors.push_back("algo=k-set needs k <= n (every group must be non-empty)");
    }
  }
}

std::string format_scenario_line(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "type=" << spec.type << " n=" << spec.n << " model="
      << (spec.crash_model == CrashModel::kIndependent ? "independent"
                                                       : "simultaneous")
      << " budget=" << spec.crash_budget << " algo=" << scenario_algo_name(spec.algo);
  if (spec.k > 0) out << " k=" << spec.k;
  if (!spec.properties.empty()) {
    out << " properties=";
    for (std::size_t i = 0; i < spec.properties.size(); ++i) {
      if (i != 0) out << ",";
      out << sim::property_name(spec.properties[i]);
    }
  }
  if (spec.symmetry) out << " symmetry=on";
  if (spec.max_steps_per_run >= 0) out << " max_steps=" << spec.max_steps_per_run;
  if (spec.max_visited >= 0) out << " max_visited=" << spec.max_visited;
  if (spec.time_limit_ms >= 0) out << " time_limit=" << spec.time_limit_ms;
  if (spec.mem_limit_mb >= 0) out << " mem_limit=" << spec.mem_limit_mb;
  if (!spec.name.empty()) out << " name=" << spec.name;
  return out.str();
}

ScenarioParse parse_scenario_specs(std::istream& in) {
  ScenarioParse result;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    line_number += 1;
    // Strip a trailing comment, then decide whether anything is left.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    ScenarioSpec spec;
    std::vector<std::string> errors;
    parse_scenario_line(line, spec, errors);
    if (errors.empty()) {
      result.specs.push_back(std::move(spec));
    } else {
      for (const std::string& error : errors) {
        result.errors.push_back("line " + std::to_string(line_number) + ": " + error);
      }
    }
  }
  return result;
}

ScenarioParse parse_scenario_specs(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario_specs(in);
}

ScenarioParse load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ScenarioParse result;
    result.errors.push_back("cannot open scenario file: " + path);
    return result;
  }
  return parse_scenario_specs(in);
}

}  // namespace rcons::check
