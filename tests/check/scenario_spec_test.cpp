// The ScenarioSpec text format: valid lines, defaults, comments, and the
// whole taxonomy of malformed input — every error is reported with its line
// number, and well-formed lines survive bad neighbours.
#include "check/scenario_spec.hpp"

#include <gtest/gtest.h>

namespace rcons::check {
namespace {

TEST(ScenarioSpecTest, ParsesFullyQualifiedLine) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(3) n=3 model=simultaneous budget=4 name=my-sweep max_steps=400 "
      "max_visited=12345\n");
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 1u);
  const ScenarioSpec& spec = parse.specs.front();
  EXPECT_EQ(spec.type, "Sn(3)");
  EXPECT_EQ(spec.n, 3);
  EXPECT_EQ(spec.crash_model, CrashModel::kSimultaneous);
  EXPECT_EQ(spec.crash_budget, 4);
  EXPECT_EQ(spec.name, "my-sweep");
  EXPECT_EQ(spec.max_steps_per_run, 400);
  EXPECT_EQ(spec.max_visited, 12345);
}

TEST(ScenarioSpecTest, AppliesDefaultsForOmittedFields) {
  const ScenarioParse parse = parse_scenario_specs("type=compare-and-swap\n");
  ASSERT_TRUE(parse.ok());
  ASSERT_EQ(parse.specs.size(), 1u);
  const ScenarioSpec& spec = parse.specs.front();
  EXPECT_EQ(spec.n, 2);
  EXPECT_EQ(spec.crash_model, CrashModel::kIndependent);
  EXPECT_EQ(spec.crash_budget, 2);
  EXPECT_TRUE(spec.name.empty());
  EXPECT_EQ(spec.max_steps_per_run, -1);  // inherit
  EXPECT_EQ(spec.max_visited, -1);        // inherit
}

TEST(ScenarioSpecTest, SkipsCommentsAndBlankLines) {
  const ScenarioParse parse = parse_scenario_specs(
      "# a comment\n"
      "\n"
      "   \t  \n"
      "type=Sn(2) n=2  # trailing comment\n"
      "# another\n"
      "type=Tn(4) n=2\n");
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 2u);
  EXPECT_EQ(parse.specs[0].type, "Sn(2)");
  EXPECT_EQ(parse.specs[1].type, "Tn(4)");
}

TEST(ScenarioSpecTest, RejectsUnknownTypeName) {
  // Besides names of no family, a family name whose parameter is not a plain
  // decimal in the family's domain (Sn: k >= 2, Tn: k >= 4) that fits an int.
  for (const std::string name :
       {"Qn(7)", "Sn(1)", "Sn(-1)", "Tn(0)", "Tn(3)", "Sn()", "Sn(99999999999)",
        "Sn(3x)", "Sn(+3)"}) {
    const ScenarioParse parse = parse_scenario_specs("type=" + name + " n=2\n");
    ASSERT_FALSE(parse.ok()) << name;
    EXPECT_TRUE(parse.specs.empty()) << name;
    EXPECT_NE(parse.errors.front().find("line 1"), std::string::npos) << name;
    EXPECT_NE(parse.errors.front().find("unknown type '" + name + "'"), std::string::npos)
        << name;
  }
}

TEST(ScenarioSpecTest, RejectsMalformedFields) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) n=one\n"
      "type=Sn(2) budget=-3\n"
      "type=Sn(2) n=1\n"
      "type=Sn(2) frobnicate=9\n"
      "n=2 budget=1\n"
      "type=Sn(2) gibberish\n");
  EXPECT_TRUE(parse.specs.empty());
  ASSERT_EQ(parse.errors.size(), 6u);
  EXPECT_NE(parse.errors[0].find("line 1: n must be"), std::string::npos);
  EXPECT_NE(parse.errors[1].find("line 2: budget must be"), std::string::npos);
  EXPECT_NE(parse.errors[2].find("line 3: n must be"), std::string::npos);
  EXPECT_NE(parse.errors[3].find("line 4: unknown key 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(parse.errors[4].find("line 5: missing required type="), std::string::npos);
  EXPECT_NE(parse.errors[5].find("line 6: expected key=value"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsBadModel) {
  const ScenarioParse parse = parse_scenario_specs("type=Sn(2) model=chaotic\n");
  ASSERT_FALSE(parse.ok());
  EXPECT_NE(parse.errors.front().find("model must be independent or simultaneous"),
            std::string::npos);
}

TEST(ScenarioSpecTest, GoodLinesSurviveBadNeighbours) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) n=2\n"
      "type=nonsense-type n=2\n"
      "type=Sn(3) n=3\n");
  EXPECT_FALSE(parse.ok());
  ASSERT_EQ(parse.specs.size(), 2u);
  EXPECT_EQ(parse.specs[0].type, "Sn(2)");
  EXPECT_EQ(parse.specs[1].type, "Sn(3)");
  ASSERT_EQ(parse.errors.size(), 1u);
  EXPECT_NE(parse.errors.front().find("line 2"), std::string::npos);
}

TEST(ScenarioSpecTest, MissingFileIsAParseError) {
  const ScenarioParse parse = load_scenario_file("/nonexistent/scenarios.spec");
  ASSERT_FALSE(parse.ok());
  EXPECT_TRUE(parse.specs.empty());
  EXPECT_NE(parse.errors.front().find("cannot open"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsOverflowingNumbers) {
  const ScenarioParse parse =
      parse_scenario_specs("type=Sn(2) max_visited=99999999999999999999999\n");
  ASSERT_FALSE(parse.ok());
  EXPECT_NE(parse.errors.front().find("max_visited must be"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsIntFieldsAboveInt32Range) {
  // Values that fit int64 but not int must be rejected, not silently wrapped.
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) budget=4294967296\n"
      "type=Sn(2) n=4294967298\n");
  EXPECT_TRUE(parse.specs.empty());
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_NE(parse.errors[0].find("budget must be"), std::string::npos);
  EXPECT_NE(parse.errors[1].find("n must be"), std::string::npos);
}

TEST(ScenarioSpecTest, ParsesAlgoAndSymmetryFields) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=test-and-set n=2 budget=1 algo=halting\n"
      "type=register n=2 budget=0 algo=naive-register\n"
      "type=Sn(4) n=4 budget=1 symmetry=on\n"
      "type=Sn(2) algo=team symmetry=off\n");
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 4u);
  EXPECT_EQ(parse.specs[0].algo, ScenarioAlgo::kHaltingTournament);
  EXPECT_EQ(parse.specs[1].algo, ScenarioAlgo::kNaiveRegister);
  EXPECT_FALSE(parse.specs[1].symmetry);
  EXPECT_EQ(parse.specs[2].algo, ScenarioAlgo::kTeamConsensus);
  EXPECT_TRUE(parse.specs[2].symmetry);
  EXPECT_EQ(parse.specs[3].algo, ScenarioAlgo::kTeamConsensus);
  EXPECT_FALSE(parse.specs[3].symmetry);
}

TEST(ScenarioSpecTest, RejectsBadAlgoAndSymmetryValues) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) algo=quantum\n"
      "type=Sn(2) symmetry=maybe\n");
  EXPECT_TRUE(parse.specs.empty());
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_NE(parse.errors[0].find("algo must be"), std::string::npos);
  EXPECT_NE(parse.errors[1].find("symmetry must be"), std::string::npos);
}

TEST(ScenarioSpecTest, FormatScenarioLineRoundTrips) {
  ScenarioSpec spec;
  spec.type = "test-and-set";
  spec.n = 3;
  spec.crash_model = CrashModel::kSimultaneous;
  spec.crash_budget = 1;
  spec.algo = ScenarioAlgo::kHaltingTournament;
  spec.symmetry = true;
  spec.max_steps_per_run = 400;
  spec.max_visited = 1'000'000;
  spec.name = "tas-halting";

  ScenarioSpec parsed;
  std::vector<std::string> errors;
  parse_scenario_line(format_scenario_line(spec), parsed, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(parsed, spec);
}

TEST(ScenarioSpecTest, ParsesPropertiesAndKFields) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) n=3 k=2 algo=k-set properties=k-set-agreement,validity\n"
      "type=Sn(2) n=2 properties=agreement,validity,wait-freedom,at-most-once\n"
      "type=Sn(2) n=4 k=2 algo=team\n");  // k is legal outside algo=k-set too
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 3u);
  EXPECT_EQ(parse.specs[0].algo, ScenarioAlgo::kKSetTeamConsensus);
  EXPECT_EQ(parse.specs[0].k, 2);
  EXPECT_EQ(parse.specs[0].properties,
            (std::vector<sim::PropertyKind>{sim::PropertyKind::kKSetAgreement,
                                            sim::PropertyKind::kValidity}));
  EXPECT_EQ(parse.specs[1].properties.size(), 4u);
  EXPECT_EQ(parse.specs[1].properties.back(), sim::PropertyKind::kAtMostOnceDecide);
  EXPECT_TRUE(parse.specs[2].properties.empty());  // default trio

  // spec_properties materializes the typed set (k threads into the param).
  const sim::PropertySet set = spec_properties(parse.specs[0]);
  EXPECT_EQ(set.agreement_k(), 2);
  EXPECT_TRUE(set.checks_validity());
  EXPECT_EQ(set.wait_bound(500), -1);  // wait-freedom not listed
}

TEST(ScenarioSpecTest, RejectsBadPropertiesAndK) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) properties=frobnication\n"
      "type=Sn(2) properties=agreement,agreement\n"
      "type=Sn(2) k=2 properties=agreement,k-set-agreement\n"
      "type=Sn(2) properties=k-set-agreement,validity\n"
      "type=Sn(2) n=3 algo=k-set\n"
      "type=Sn(2) n=2 k=3 algo=k-set\n"
      "type=Sn(2) k=1 algo=k-set\n");
  EXPECT_TRUE(parse.specs.empty());
  // The last line produces two diagnostics: the bad k value itself, and the
  // k-set algo left without a usable k.
  ASSERT_EQ(parse.errors.size(), 8u);
  EXPECT_NE(parse.errors[0].find("unknown property"), std::string::npos);
  EXPECT_NE(parse.errors[1].find("duplicate property"), std::string::npos);
  EXPECT_NE(parse.errors[2].find("mutually exclusive"), std::string::npos);
  EXPECT_NE(parse.errors[3].find("needs k="), std::string::npos);
  EXPECT_NE(parse.errors[4].find("algo=k-set needs k="), std::string::npos);
  EXPECT_NE(parse.errors[5].find("k <= n"), std::string::npos);
  EXPECT_NE(parse.errors[6].find("k must be an integer >= 2"), std::string::npos);
  EXPECT_NE(parse.errors[7].find("algo=k-set needs k="), std::string::npos);
}

TEST(ScenarioSpecTest, ParsesResourceLimitFields) {
  const ScenarioParse parse =
      parse_scenario_specs("type=Sn(2) n=2 time_limit=5000 mem_limit=2048\n");
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  EXPECT_EQ(parse.specs.front().time_limit_ms, 5000);
  EXPECT_EQ(parse.specs.front().mem_limit_mb, 2048);
}

TEST(ScenarioSpecTest, RejectsBadResourceLimits) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) time_limit=0\n"
      "type=Sn(2) time_limit=-5\n"
      "type=Sn(2) mem_limit=abc\n");
  EXPECT_TRUE(parse.specs.empty());
  ASSERT_EQ(parse.errors.size(), 3u);
  EXPECT_NE(parse.errors[0].find("time_limit must be"), std::string::npos);
  EXPECT_NE(parse.errors[1].find("time_limit must be"), std::string::npos);
  EXPECT_NE(parse.errors[2].find("mem_limit must be"), std::string::npos);
}

TEST(ScenarioSpecTest, RoundTripsAGridOverEveryGrammarField) {
  // format_scenario_line ∘ parse_scenario_line must be the identity over the
  // whole grammar, including the properties=/k= extension — every field that
  // can be written must read back to the same spec.
  const std::vector<std::vector<sim::PropertyKind>> property_sets = {
      {},  // default trio (omitted from the line)
      {sim::PropertyKind::kAgreement, sim::PropertyKind::kValidity},
      {sim::PropertyKind::kKSetAgreement, sim::PropertyKind::kValidity,
       sim::PropertyKind::kWaitFreedom},
      {sim::PropertyKind::kAgreement, sim::PropertyKind::kValidity,
       sim::PropertyKind::kWaitFreedom, sim::PropertyKind::kAtMostOnceDecide},
  };
  int covered = 0;
  for (const std::string& type : {std::string("Sn(2)"), std::string("test-and-set")}) {
    for (const int n : {2, 3}) {
      for (const CrashModel model :
           {CrashModel::kIndependent, CrashModel::kSimultaneous}) {
        for (const int budget : {0, 2}) {
          for (const ScenarioAlgo algo :
               {ScenarioAlgo::kTeamConsensus, ScenarioAlgo::kHaltingTournament,
                ScenarioAlgo::kNaiveRegister, ScenarioAlgo::kKSetTeamConsensus}) {
            for (const int k : {0, 2}) {
              for (const auto& properties : property_sets) {
                for (const bool symmetry : {false, true}) {
                  for (const std::int64_t max_steps : {std::int64_t{-1}, std::int64_t{400}}) {
                    for (const std::int64_t max_visited :
                         {std::int64_t{-1}, std::int64_t{12345}}) {
                     for (const std::int64_t time_limit :
                          {std::int64_t{-1}, std::int64_t{250}}) {
                     for (const std::int64_t mem_limit :
                          {std::int64_t{-1}, std::int64_t{512}}) {
                      for (const std::string& name :
                           {std::string(), std::string("grid-name")}) {
                        const bool wants_k_set =
                            !properties.empty() &&
                            properties.front() == sim::PropertyKind::kKSetAgreement;
                        // Skip combinations the grammar rejects by design.
                        if ((wants_k_set || algo == ScenarioAlgo::kKSetTeamConsensus) &&
                            k == 0) {
                          continue;
                        }
                        if (algo == ScenarioAlgo::kKSetTeamConsensus && k > n) continue;

                        ScenarioSpec spec;
                        spec.type = type;
                        spec.n = n;
                        spec.crash_model = model;
                        spec.crash_budget = budget;
                        spec.algo = algo;
                        spec.k = k;
                        spec.properties = properties;
                        spec.symmetry = symmetry;
                        spec.max_steps_per_run = max_steps;
                        spec.max_visited = max_visited;
                        spec.time_limit_ms = time_limit;
                        spec.mem_limit_mb = mem_limit;
                        spec.name = name;

                        ScenarioSpec parsed;
                        std::vector<std::string> errors;
                        parse_scenario_line(format_scenario_line(spec), parsed, errors);
                        ASSERT_TRUE(errors.empty())
                            << format_scenario_line(spec) << "\n  -> " << errors.front();
                        ASSERT_EQ(parsed, spec) << format_scenario_line(spec);
                        covered += 1;
                      }
                     }
                     }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(covered, 5000);  // the grid really swept the grammar
}

TEST(ScenarioSpecTest, BudgetKeepsDefaultsForUnsetOverrides) {
  const ScenarioParse parse = parse_scenario_specs(
      "type=Sn(2) model=simultaneous budget=3\n"
      "type=Sn(2) budget=1 max_steps=40 max_visited=500 time_limit=7 mem_limit=9\n");
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 2u);

  const Budget defaults;
  const Budget inherited = parse.specs[0].budget();
  EXPECT_EQ(inherited.crash_model, CrashModel::kSimultaneous);
  EXPECT_EQ(inherited.crash_budget, 3);
  EXPECT_EQ(inherited.max_steps_per_run, defaults.max_steps_per_run);
  EXPECT_EQ(inherited.max_visited, defaults.max_visited);
  EXPECT_EQ(inherited.time_limit_ms, defaults.time_limit_ms);
  EXPECT_EQ(inherited.mem_limit_mb, defaults.mem_limit_mb);

  const Budget overridden = parse.specs[1].budget();
  EXPECT_EQ(overridden.crash_model, CrashModel::kIndependent);
  EXPECT_EQ(overridden.crash_budget, 1);
  EXPECT_EQ(overridden.max_steps_per_run, 40);
  EXPECT_EQ(overridden.max_visited, 500);
  EXPECT_EQ(overridden.time_limit_ms, 7);
  EXPECT_EQ(overridden.mem_limit_mb, 9);
}

}  // namespace
}  // namespace rcons::check
