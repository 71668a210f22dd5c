// The deterministic fault harness: grammar, hit-count semantics, stall
// release, and the matrix contract — every injected failure mode ends in a
// clean typed verdict (never a hang, never an abort) across thread counts,
// and an allocation failure's final checkpoint resumes to every state.
#include "engine/fault_inject.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "engine/checkpoint.hpp"

namespace rcons::engine {
namespace {

TEST(FaultPlanGrammarTest, ParsesActionSiteAndHit) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("die@batch=50", plan, error)) << error;
  EXPECT_EQ(plan.site(), FaultPlan::Site::kBatch);
  EXPECT_EQ(plan.action(), FaultPlan::Action::kDie);
  EXPECT_EQ(plan.at_hit(), 50u);

  ASSERT_TRUE(parse_fault_plan("alloc@intern=5000", plan, error)) << error;
  EXPECT_EQ(plan.site(), FaultPlan::Site::kIntern);
  EXPECT_EQ(plan.action(), FaultPlan::Action::kAllocFail);

  ASSERT_TRUE(parse_fault_plan("trunc@ckpt-write=1", plan, error)) << error;
  EXPECT_EQ(plan.site(), FaultPlan::Site::kCkptWrite);
  EXPECT_EQ(plan.action(), FaultPlan::Action::kTruncateWrite);
}

TEST(FaultPlanGrammarTest, StallOptionOverridesDefaultTimeout) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("stall@batch=100:ms=60000", plan, error)) << error;
  EXPECT_EQ(plan.action(), FaultPlan::Action::kStall);
  EXPECT_EQ(plan.stall_ms(), 60000);
  // Re-arming through the parser resets the timeout to the default.
  ASSERT_TRUE(parse_fault_plan("stall@batch=100", plan, error)) << error;
  EXPECT_EQ(plan.stall_ms(), 30000);
}

TEST(FaultPlanGrammarTest, RandomPlacementIsSeededAndInRange) {
  FaultPlan a, b, c;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("stop@batch=~200:seed=7", a, error)) << error;
  ASSERT_TRUE(parse_fault_plan("stop@batch=~200:seed=7", b, error)) << error;
  ASSERT_TRUE(parse_fault_plan("stop@batch=~200:seed=8", c, error)) << error;
  EXPECT_EQ(a.at_hit(), b.at_hit());  // same seed, same placement
  EXPECT_GE(a.at_hit(), 1u);
  EXPECT_LE(a.at_hit(), 200u);
  EXPECT_GE(c.at_hit(), 1u);
  EXPECT_LE(c.at_hit(), 200u);
}

TEST(FaultPlanGrammarTest, RejectsMalformedPlans) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(parse_fault_plan("explode@batch=1", plan, error));
  EXPECT_NE(error.find("unknown action"), std::string::npos);
  EXPECT_FALSE(parse_fault_plan("die@nowhere=1", plan, error));
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(parse_fault_plan("trunc@batch=1", plan, error));
  EXPECT_NE(error.find("ckpt-write"), std::string::npos);
  EXPECT_FALSE(parse_fault_plan("die@batch=", plan, error));
  EXPECT_FALSE(parse_fault_plan("die@batch=0", plan, error));
  EXPECT_FALSE(parse_fault_plan("die@batch=x", plan, error));
  EXPECT_FALSE(parse_fault_plan("die@batch=5:bogus=1", plan, error));
  EXPECT_FALSE(parse_fault_plan("diebatch=5", plan, error));
}

TEST(FaultPlanTest, FiresExactlyOnTheArmedHitOfTheArmedSite) {
  FaultPlan plan(FaultPlan::Site::kBatch, FaultPlan::Action::kStop, 3);
  // Wrong site never counts.
  EXPECT_EQ(plan.hit(FaultPlan::Site::kIntern), FaultPlan::Action::kNone);
  EXPECT_EQ(plan.hit(FaultPlan::Site::kBatch), FaultPlan::Action::kNone);
  EXPECT_EQ(plan.hit(FaultPlan::Site::kBatch), FaultPlan::Action::kNone);
  EXPECT_FALSE(plan.fired());
  EXPECT_EQ(plan.hit(FaultPlan::Site::kBatch), FaultPlan::Action::kStop);
  EXPECT_TRUE(plan.fired());
  // Only the Nth hit fires; later hits are silent.
  EXPECT_EQ(plan.hit(FaultPlan::Site::kBatch), FaultPlan::Action::kNone);
}

TEST(FaultPlanTest, AllocFailThrowsBadAlloc) {
  FaultPlan plan(FaultPlan::Site::kIntern, FaultPlan::Action::kAllocFail, 1);
  EXPECT_THROW(plan.hit(FaultPlan::Site::kIntern), std::bad_alloc);
}

TEST(FaultPlanTest, ReleaseStallsUnblocksAStalledThread) {
  FaultPlan plan(FaultPlan::Site::kBatch, FaultPlan::Action::kStall, 1);
  plan.set_stall_ms(60'000);  // far beyond the test's patience: release must work
  std::atomic<bool> returned{false};
  std::thread stalled([&] {
    plan.hit(FaultPlan::Site::kBatch);
    returned.store(true, std::memory_order_seq_cst);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load(std::memory_order_seq_cst));
  plan.release_stalls();
  stalled.join();
  EXPECT_TRUE(returned.load(std::memory_order_seq_cst));
}

// --- the matrix: injected failures end in typed verdicts, at every scale ---

check::CheckRequest matrix_request(int threads) {
  check::ScenarioSpec spec;
  std::vector<std::string> errors;
  check::parse_scenario_line("type=Sn(3) n=3 model=independent budget=2", spec,
                             errors);
  EXPECT_TRUE(errors.empty());
  check::CheckRequest request;
  request.system = check::build_spec_system(spec);
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = check::Strategy::kParallelBFS;
  request.num_threads = threads;
  request.sentinel_interval_ms = 5;
  return request;
}

struct MatrixCase {
  const char* plan;
  sim::StopReason reason;
  const char* description_marker;  // must appear in the truncation verdict
  int watchdog = 0;
  std::uint64_t checkpoint_every = 0;  // periodic checkpoints to a temp file
  // A final checkpoint to a temp file, which must resume to the full count.
  bool resume = false;
};

// Every state of matrix_request()'s scenario.
constexpr std::uint64_t kMatrixStates = 6081;

TEST(FaultMatrixTest, EveryInjectionEndsInATypedVerdictAcrossThreadCounts) {
  const MatrixCase cases[] = {
      {"stop@batch=10", sim::StopReason::kForcedStop, "external request"},
      {"stop@intern=50", sim::StopReason::kForcedStop, "external request"},
      {"stall@batch=10:ms=30000", sim::StopReason::kWatchdog, "no progress",
       /*watchdog=*/3},
      // A checkpoint falls due while a worker is stalled: the coordinator
      // keeps scanning while it waits for the workers to yield, so the
      // watchdog still ends the run.
      {"stall@batch=10:ms=30000", sim::StopReason::kWatchdog, "no progress",
       /*watchdog=*/3, /*checkpoint_every=*/100},
      // An allocation failure hands back everything the worker held — its
      // collected successors, the item in flight and the rest of its popped
      // batch — so the final checkpoint resumes to every state.
      {"alloc@intern=50", sim::StopReason::kMemory, "allocation failed", 0, 0,
       /*resume=*/true},
      {"alloc@batch=10", sim::StopReason::kMemory, "allocation failed", 0, 0,
       /*resume=*/true},
  };
  for (const MatrixCase& test : cases) {
    for (const int threads : {1, 4, 8}) {
      FaultPlan plan;
      std::string error;
      ASSERT_TRUE(parse_fault_plan(test.plan, plan, error)) << error;
      check::CheckRequest request = matrix_request(threads);
      request.fault = &plan;
      request.watchdog_stall_intervals = test.watchdog;
      const std::string path = testing::TempDir() + "rcons_matrix.ckpt";
      if (test.checkpoint_every != 0 || test.resume) {
        request.checkpoint_path = path;
        request.checkpoint_every = test.checkpoint_every;
      }
      const check::CheckReport report = check::check(std::move(request));
      SCOPED_TRACE(std::string(test.plan) + " threads=" + std::to_string(threads));
      EXPECT_TRUE(report.stats.truncated());
      EXPECT_EQ(report.stats.stop_reason, test.reason);
      EXPECT_FALSE(report.complete);
      ASSERT_TRUE(report.violation.has_value());  // the truncation marker
      EXPECT_EQ(report.violation->property, sim::PropertyKind::kNone);
      EXPECT_NE(report.violation->description.find(test.description_marker),
                std::string::npos)
          << report.violation->description;
      if (test.resume) {
        EXPECT_LT(report.stats.visited, kMatrixStates);
        CheckpointData snapshot;
        ASSERT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
        check::CheckRequest resumed = matrix_request(threads);
        resumed.resume = &snapshot;
        const check::CheckReport again = check::check(std::move(resumed));
        EXPECT_TRUE(again.complete);
        EXPECT_TRUE(again.clean);
        EXPECT_EQ(again.stats.visited, kMatrixStates);
      }
      std::remove(path.c_str());
    }
  }
}

TEST(FaultMatrixTest, UnfiredPlanLeavesTheRunUntouched) {
  // A plan armed at a hit count the run never reaches: same verdict and the
  // same visited count as a run with no plan at all (zero-cost when unset).
  const check::CheckReport bare = check::check(matrix_request(4));
  FaultPlan plan(FaultPlan::Site::kBatch, FaultPlan::Action::kDie,
                 std::uint64_t{1} << 40);
  check::CheckRequest request = matrix_request(4);
  request.fault = &plan;
  const check::CheckReport faulted = check::check(std::move(request));
  EXPECT_FALSE(plan.fired());
  EXPECT_EQ(bare.clean, faulted.clean);
  EXPECT_EQ(bare.stats.visited, faulted.stats.visited);
}

}  // namespace
}  // namespace rcons::engine
