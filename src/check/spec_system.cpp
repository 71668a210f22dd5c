#include "check/spec_system.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "rc/discerning_consensus.hpp"
#include "rc/k_set.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"
#include "util/assert.hpp"

namespace rcons::check {

namespace {

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

ScenarioSystem build_team(const ScenarioSpec& spec) {
  auto type = typesys::make_type(spec.type);
  RCONS_ASSERT_MSG(type != nullptr, "spec type unknown to the zoo");
  rc::TeamConsensusSystem built =
      rc::make_team_consensus_system(*type, spec.n, kInputA, kInputB);
  ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = {kInputA, kInputB};
  if (spec.symmetry) system.symmetry_classes = std::move(built.symmetry_classes);
  return system;
}

ScenarioSystem build_halting(const ScenarioSpec& spec) {
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type(spec.type);
  RCONS_ASSERT_MSG(type != nullptr, "spec type unknown to the zoo");
  std::vector<typesys::Value> inputs;
  for (int i = 0; i < spec.n; ++i) inputs.push_back(i + 1);
  // The system's programs outlive this scope, so their transition cache must
  // own the type rather than borrow it.
  rc::HaltingConsensusSystem built =
      rc::make_halting_consensus(std::move(type), spec.n, inputs);
  ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = std::move(inputs);
  if (spec.symmetry) system.symmetry_classes = std::move(built.symmetry_classes);
  return system;
}

ScenarioSystem build_naive_register(const ScenarioSpec& spec) {
  rc::NaiveRegisterSystem built = rc::make_naive_register_system(spec.n);
  ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = std::move(built.inputs);
  return system;
}

ScenarioSystem build_k_set(const ScenarioSpec& spec) {
  auto type = typesys::make_type(spec.type);
  RCONS_ASSERT_MSG(type != nullptr, "spec type unknown to the zoo");
  RCONS_ASSERT_MSG(spec.k >= 2 && spec.k <= spec.n,
                   "algo=k-set needs 2 <= k <= n (parse validates this)");
  rc::KSetTeamSystem built = rc::make_k_set_team_consensus(*type, spec.k, spec.n);
  ScenarioSystem system;
  system.memory = std::move(built.memory);
  system.processes = std::move(built.processes);
  system.properties.valid_outputs = std::move(built.inputs);
  if (spec.symmetry) system.symmetry_classes = std::move(built.symmetry_classes);
  return system;
}

}  // namespace

ScenarioSystem build_spec_system(const ScenarioSpec& spec) {
  ScenarioSystem system;
  switch (spec.algo) {
    case ScenarioAlgo::kTeamConsensus:
      system = build_team(spec);
      break;
    case ScenarioAlgo::kHaltingTournament:
      system = build_halting(spec);
      break;
    case ScenarioAlgo::kNaiveRegister:
      system = build_naive_register(spec);
      break;
    case ScenarioAlgo::kKSetTeamConsensus:
      system = build_k_set(spec);
      break;
  }
  RCONS_ASSERT_MSG(!system.processes.empty(), "unknown scenario algo");

  // The spec's property list replaces the default trio; the construction's
  // inputs stay the validity set either way.
  if (!spec.properties.empty()) {
    sim::PropertySet properties = spec_properties(spec);
    properties.valid_outputs = std::move(system.properties.valid_outputs);
    system.properties = std::move(properties);
  }
  return system;
}

std::string spec_display_name(const ScenarioSpec& spec) {
  if (!spec.name.empty()) return spec.name;
  std::ostringstream name;
  name << scenario_algo_name(spec.algo) << "/" << spec.type << "/n=" << spec.n << "/"
       << (spec.crash_model == CrashModel::kIndependent ? "independent"
                                                        : "simultaneous")
       << "/c=" << spec.crash_budget;
  if (spec.k > 0) name << "/k=" << spec.k;
  if (!spec.properties.empty()) {
    name << "/props=";
    for (std::size_t i = 0; i < spec.properties.size(); ++i) {
      if (i != 0) name << ",";
      name << sim::property_name(spec.properties[i]);
    }
  }
  return name.str();
}

}  // namespace rcons::check
