// The gap between the two hierarchies, demonstrated behaviourally: Ruppert's
// Theorem 3 construction solves consensus in the halting model, and the
// checker proves it; add a single crash and the checker exhibits an
// agreement violation — the evidence-destruction failure mode the paper's
// n-recording property is designed to rule out.
//
// Clean proofs go through Strategy::kAuto (the facade picks the backend);
// tests that pin a specific counterexample use kSequentialDFS, whose
// first-violation DFS is deterministic and cheap on dirty instances.
#include "rc/discerning_consensus.hpp"

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "typesys/zoo.hpp"

namespace rcons::rc {
namespace {

check::CheckRequest halting_request(HaltingConsensusSystem system,
                                    std::vector<typesys::Value> inputs,
                                    int crash_budget) {
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = std::move(inputs);
  request.budget.crash_budget = crash_budget;
  return request;
}

struct HaltingCase {
  std::string type_name;
  int witness_n;
  int participants;
};

class HaltingConsensusTest : public ::testing::TestWithParam<HaltingCase> {};

TEST_P(HaltingConsensusTest, CorrectWithoutCrashes) {
  const HaltingCase& c = GetParam();
  auto type = typesys::make_type(c.type_name);
  std::vector<typesys::Value> inputs;
  for (int i = 0; i < c.participants; ++i) inputs.push_back(100 + i);
  HaltingConsensusSystem system = make_halting_consensus(std::move(type), c.witness_n, inputs);
  check::CheckRequest request =
      halting_request(std::move(system), inputs, /*crash_budget=*/0);
  request.strategy = check::Strategy::kAuto;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean)
      << report.violation->description << "\n  trace: " << report.violation->trace();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HaltingConsensusTest,
    ::testing::Values(HaltingCase{"test-and-set", 2, 2},
                      HaltingCase{"fetch-and-increment", 2, 2},
                      HaltingCase{"swap", 2, 2}, HaltingCase{"Tn(4)", 4, 4},
                      HaltingCase{"Tn(5)", 5, 4}, HaltingCase{"Sn(3)", 3, 3},
                      HaltingCase{"compare-and-swap", 4, 4}),
    [](const ::testing::TestParamInfo<HaltingCase>& param_info) {
      std::string name = param_info.param.type_name + "_w" +
                         std::to_string(param_info.param.witness_n) + "_k" +
                         std::to_string(param_info.param.participants);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(HaltingNegativeTest, TasConsensusBreaksUnderOneCrash) {
  auto type = typesys::make_type("test-and-set");
  HaltingConsensusSystem system = make_halting_consensus(std::move(type), 2, {5, 6});
  check::CheckRequest request =
      halting_request(std::move(system), {5, 6}, /*crash_budget=*/1);
  request.strategy = check::Strategy::kSequentialDFS;
  const check::CheckReport report = check::check(std::move(request));
  ASSERT_FALSE(report.clean);
  EXPECT_NE(report.violation->description.find("agreement"), std::string::npos);
}

TEST(HaltingNegativeTest, TnConsensusBreaksUnderCrashes) {
  // cons(T_4) = 4 but rcons(T_4) < 4: the halting algorithm over T_4 must
  // fail for 4 processes once crashes are possible (Theorem 14 says nothing
  // recoverable exists; this exhibits the concrete failure of this
  // particular algorithm).
  auto type = typesys::make_type("Tn(4)");
  HaltingConsensusSystem system = make_halting_consensus(std::move(type), 4, {1, 2, 3, 4});
  check::CheckRequest request =
      halting_request(std::move(system), {1, 2, 3, 4}, /*crash_budget=*/2);
  request.budget.max_visited = 40'000'000;
  request.strategy = check::Strategy::kSequentialDFS;
  const check::CheckReport report = check::check(std::move(request));
  ASSERT_FALSE(report.clean);
}

TEST(HaltingNegativeTest, EvenCasBreaksWhenAlgorithmIsResponseBased) {
  // Subtle: rcons(CAS) = ∞, yet the *response-based* Theorem 3 algorithm
  // still breaks under crashes — a re-run re-applies CAS and observes a
  // (response, state) pair outside both R-sets, deciding the wrong register.
  // Solving RC with CAS requires the state-based Figure 2 algorithm; this
  // test pins down that the weakness is the algorithm, not the type.
  auto type = typesys::make_type("compare-and-swap");
  HaltingConsensusSystem system = make_halting_consensus(std::move(type), 2, {5, 6});
  check::CheckRequest request =
      halting_request(std::move(system), {5, 6}, /*crash_budget=*/2);
  request.strategy = check::Strategy::kSequentialDFS;
  EXPECT_FALSE(check::check(std::move(request)).clean);
}

}  // namespace
}  // namespace rcons::rc
