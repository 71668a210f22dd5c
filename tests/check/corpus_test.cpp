// The tests/corpus/ regression corpus: every checked-in `.viol` file must
// parse, build its scenario via build_spec_system, and reproduce a violation
// of the recorded property through Strategy::kReplay. Also covers the
// violation-file round trip (format -> parse -> format).
#include "check/violation_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/spec_system.hpp"

namespace rcons::check {
namespace {

std::filesystem::path corpus_dir() {
  return std::filesystem::path(RCONS_SOURCE_DIR) / "tests" / "corpus";
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().extension() == ".viol") files.push_back(entry.path());
  }
  return files;
}

TEST(CorpusTest, CorpusIsSeeded) {
  // The seed corpus: the halting-TAS crash violation and the register race.
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 2u);
  bool has_halting = false;
  bool has_register_race = false;
  for (const auto& path : files) {
    const std::string name = path.filename().string();
    has_halting = has_halting || name.find("halting") != std::string::npos;
    has_register_race =
        has_register_race || name.find("register") != std::string::npos;
  }
  EXPECT_TRUE(has_halting);
  EXPECT_TRUE(has_register_race);
}

TEST(CorpusTest, EveryCorpusViolationReproducesThroughReplay) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.string());
    const ViolationParse parse = load_violation_file(path.string());
    ASSERT_TRUE(parse.ok()) << (parse.errors.empty() ? "" : parse.errors.front());
    const ViolationFile& file = *parse.file;
    const sim::PropertyKind property = file.property;
    ASSERT_NE(property, sim::PropertyKind::kNone);

    CheckRequest request;
    request.system = build_spec_system(file.scenario);
    request.budget.crash_model = file.scenario.crash_model;
    request.budget.crash_budget = file.scenario.crash_budget;
    if (file.scenario.max_steps_per_run >= 0) {
      request.budget.max_steps_per_run = file.scenario.max_steps_per_run;
    }
    request.strategy = Strategy::kReplay;
    request.schedule = file.schedule;
    const CheckReport report = check(std::move(request));

    ASSERT_FALSE(report.clean);
    ASSERT_TRUE(report.violation.has_value());
    EXPECT_EQ(report.violation->property, property)
        << report.violation->description;
  }
}

// The first violation each corpus scenario yields from the root, pinned as
// found by the depth-first traversal that kSequentialDFS runs and kAuto's
// probe runs first (every corpus scenario fits in the probe). The benchmark's
// spec-sweep pins the same visited counts.
TEST(CorpusTest, DepthFirstFindsThePinnedFirstViolation) {
  struct Pin {
    const char* file;
    sim::PropertyKind property;
    const char* schedule;
    std::uint64_t visited;
  };
  const Pin pins[] = {
      {"halting-tas.viol", sim::PropertyKind::kAgreement,
       "step(p0) step(p0) step(p0) step(p0) step(p1) step(p1) step(p1) step(p1) "
       "CRASH(p0) step(p0) step(p0) step(p0) step(p0) ",
       12},
      {"kset-consensus-violates.viol", sim::PropertyKind::kAgreement,
       "step(p0) step(p0) step(p0) step(p0) step(p0) step(p0) step(p1) ", 6},
      {"register-race.viol", sim::PropertyKind::kAgreement,
       "step(p0) step(p0) step(p1) step(p1) ", 3},
  };
  for (const Pin& pin : pins) {
    const ViolationParse parse = load_violation_file((corpus_dir() / pin.file).string());
    ASSERT_TRUE(parse.ok()) << pin.file;
    const ScenarioSpec& scenario = parse.file->scenario;
    for (const Strategy strategy : {Strategy::kSequentialDFS, Strategy::kAuto}) {
      SCOPED_TRACE(std::string(pin.file) + " " + strategy_name(strategy));
      CheckRequest request;
      request.system = build_spec_system(scenario);
      request.budget.crash_model = scenario.crash_model;
      request.budget.crash_budget = scenario.crash_budget;
      if (scenario.max_steps_per_run >= 0) {
        request.budget.max_steps_per_run = scenario.max_steps_per_run;
      }
      request.strategy = strategy;
      const CheckReport report = check(std::move(request));
      EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
      ASSERT_TRUE(report.violation.has_value());
      EXPECT_EQ(report.violation->property, pin.property);
      EXPECT_EQ(report.violation->trace(), pin.schedule);
      EXPECT_EQ(report.stats.visited, pin.visited);
    }
  }
}

TEST(ViolationIoTest, FormatParseRoundTrip) {
  // One file per crash model: a schedule holds crash events or crash-all
  // events, never both (the parser rejects the kind its model never takes).
  for (const CrashModel model : {CrashModel::kIndependent, CrashModel::kSimultaneous}) {
    ViolationFile file;
    file.scenario.type = "test-and-set";
    file.scenario.n = 2;
    file.scenario.crash_model = model;
    file.scenario.crash_budget = 2;
    file.scenario.algo = ScenarioAlgo::kHaltingTournament;
    file.property = sim::PropertyKind::kAgreement;
    file.description = "agreement violated: process 1 decided 2 but earlier was 1";
    const sim::ScheduleEvent crash = model == CrashModel::kIndependent
                                         ? sim::ScheduleEvent::crash(0)
                                         : sim::ScheduleEvent::crash_all();
    file.schedule = {sim::ScheduleEvent::step(0), crash, crash, sim::ScheduleEvent::step(1)};

    const std::string text = format_violation_file(file);
    const ViolationParse parse = parse_violation_file(text);
    ASSERT_TRUE(parse.ok()) << (parse.errors.empty() ? "" : parse.errors.front());
    EXPECT_EQ(parse.file->scenario, file.scenario);
    EXPECT_EQ(parse.file->property, file.property);
    EXPECT_EQ(parse.file->description, file.description);
    EXPECT_EQ(parse.file->schedule, file.schedule);
    // Formatting the parse reproduces the text (canonical form).
    EXPECT_EQ(format_violation_file(*parse.file), text);
  }
}

TEST(ViolationIoTest, PropertyLineCarriesTypedKindAndParam) {
  const ViolationParse parse = parse_violation_file(
      "scenario type=Sn(2) algo=k-set n=3 k=2 "
      "properties=k-set-agreement,validity\n"
      "property k-set-agreement 2\n"
      "description k-set agreement violated (k=2): process 0 decided 101\n"
      "step 1\n");
  ASSERT_TRUE(parse.ok()) << (parse.errors.empty() ? "" : parse.errors.front());
  EXPECT_EQ(parse.file->property, sim::PropertyKind::kKSetAgreement);
  EXPECT_EQ(parse.file->property_param, 2);

  const ViolationParse bad = parse_violation_file(
      "scenario type=register algo=naive-register n=2\n"
      "property frobnication\n"
      "description agreement violated: x\n"
      "step 0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors.front().find("unknown property"), std::string::npos);
}

TEST(ViolationIoTest, ParseReportsStructuralErrors) {
  const ViolationParse missing = parse_violation_file("step 0\n");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.errors.size(), 3u);  // no scenario, no description, no property

  // The property line is required: nothing recovers the kind from the
  // description.
  const ViolationParse untyped = parse_violation_file(
      "scenario type=register algo=naive-register n=2\n"
      "description agreement violated: process 1 decided 2\n"
      "step 0\n");
  EXPECT_FALSE(untyped.ok());
  ASSERT_EQ(untyped.errors.size(), 1u);
  EXPECT_EQ(untyped.errors.front(), "missing property line");

  const ViolationParse bad_event = parse_violation_file(
      "scenario type=register algo=naive-register n=2\n"
      "property agreement\n"
      "description agreement violated: x\n"
      "step minus-one\n"
      "frobnicate\n"
      "step 0\n");
  EXPECT_FALSE(bad_event.ok());
  EXPECT_EQ(bad_event.errors.size(), 2u);

  const ViolationParse bad_scenario = parse_violation_file(
      "scenario type=no-such-type n=2\n"
      "property agreement\n"
      "description agreement violated: x\n"
      "step 0\n");
  EXPECT_FALSE(bad_scenario.ok());
}

TEST(ViolationIoTest, SaveAndLoadRoundTripsThroughDisk) {
  ViolationFile file;
  file.scenario.type = "register";
  file.scenario.algo = ScenarioAlgo::kNaiveRegister;
  file.scenario.crash_budget = 0;
  file.property = sim::PropertyKind::kAgreement;
  file.description = "agreement violated: round trip";
  file.schedule = {sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(1)};

  const auto path = std::filesystem::temp_directory_path() / "rcons_roundtrip.viol";
  ASSERT_TRUE(save_violation_file(path.string(), file));
  const ViolationParse loaded = load_violation_file(path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.file->scenario, file.scenario);
  EXPECT_EQ(loaded.file->schedule, file.schedule);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rcons::check
