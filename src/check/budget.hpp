// The one definition of "how hard may a checker try": crash model, crash
// budget, and the step/state bounds. Every execution backend — the engine's
// depth-first and worker-loop traversals, the random runner, and scripted
// replay — consumes the same `Budget`, so the knobs cannot drift apart per
// backend (they used to be copied across the backend configs).
//
// What counts as a *correct* outcome lives elsewhere: the typed
// `sim::PropertySet` (sim/properties.hpp), carried by `check::ScenarioSystem`
// and routed to the backends by the check:: facade. The budget's
// max_steps_per_run is the default bound the wait-freedom property inherits.
//
// All step/state budgets share one integer width (std::int64_t) so spec
// fields, configs, and comparisons cannot disagree on range.
//
// Backends ignore the fields that do not apply to them (documented on each
// field); the `check::` facade in check/check.hpp is the one entry point that
// routes a Budget to a backend.
#ifndef RCONS_CHECK_BUDGET_HPP
#define RCONS_CHECK_BUDGET_HPP

#include <cstdint>

namespace rcons::check {

enum class CrashModel {
  kIndependent,   // processes crash and recover individually (paper Section 3)
  kSimultaneous,  // all processes crash together (paper Section 2)
};

struct Budget {
  CrashModel crash_model = CrashModel::kIndependent;

  // Exhaustive backends place at most this many crash events per execution;
  // the random runner injects at most this many per run.
  int crash_budget = 2;

  // Recoverable wait-freedom bound: a single run (between crashes) of any
  // process may take at most this many steps before it must decide. The
  // kWaitFreedom property inherits this unless it carries its own bound.
  std::int64_t max_steps_per_run = 500;

  // Exhaustive backends stop (with an explicit "truncated" verdict) after
  // deduplicating this many global states. Ignored by random/replay.
  std::int64_t max_visited = 20'000'000;

  // max_visited as the unsigned cap the explorers' visited counters compare
  // against. Non-positive budgets mean "truncate immediately": the first
  // state inserted during expansion already exceeds the cap, so the explorers
  // stop right away — but they still return the typed truncated verdict
  // (StopReason::kVisitedCap) with whatever partial stats exist, never an
  // empty report (tests/check/robustness_test.cpp pins this edge).
  std::uint64_t visited_cap() const {
    return max_visited < 0 ? 0 : static_cast<std::uint64_t>(max_visited);
  }

  // Wall-clock budget in milliseconds; 0 = unlimited. The exhaustive
  // backends' resource sentinel flips a cooperative stop flag when the run
  // exceeds it, and the run returns a typed truncated verdict
  // (StopReason::kDeadline) with full partial stats — never an abort.
  // Ignored by random/replay (they are bounded by runs/schedule length).
  std::int64_t time_limit_ms = 0;

  // Resident-set budget in MiB; 0 = unlimited. Same sentinel contract as
  // time_limit_ms, with StopReason::kMemory. The sentinel samples the
  // process RSS (engine/sentinel.hpp), so the limit covers the whole
  // process, not just the explorer's tables.
  std::int64_t mem_limit_mb = 0;

  // Whether crash events may hit a process that already decided in its
  // current run (the paper's model allows it; some scenarios disable it).
  bool crash_after_decide = true;
};

}  // namespace rcons::check

#endif  // RCONS_CHECK_BUDGET_HPP
