// Seeded random executions with crash injection, for instances too large to
// explore exhaustively. Any reported violation is reproducible from the seed,
// and every run records its schedule, so a violating run also replays exactly
// through sim::replay (the two backends share the ScheduleEvent vocabulary).
//
// The run evaluates the configured `sim::PropertySet` through the same
// helpers the explorers inline (sim/properties.hpp), so a violation carries
// the identical typed property and description across backends.
#ifndef RCONS_SIM_RANDOM_RUNNER_HPP
#define RCONS_SIM_RANDOM_RUNNER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/hooks.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/properties.hpp"
#include "sim/schedule.hpp"

namespace rcons::sim {

// The shared `check::Budget` fields are interpreted as: `crash_budget` caps
// the crashes injected per run, `max_steps_per_run` is the wait-freedom bound
// the kWaitFreedom property inherits, `max_visited` is ignored (random runs
// do not deduplicate states).
struct RandomRunConfig : check::Budget {
  // What counts as a correct outcome; the classic trio by default.
  PropertySet properties;

  // Observability sinks (obs/hooks.hpp). A non-null metrics registry receives
  // the random.* counters after each run; a non-null tracer gets one
  // "random_run" span per call. Null (the default) disables both.
  obs::Hooks obs;

  std::uint64_t seed = 1;
  // Probability (numerator / 1000) that a scheduling slot injects a crash
  // instead of a step, while crash budget remains. Must be in [0, 1000]
  // (asserted by run_random): 0 never crashes, 1000 crashes every slot until
  // the crash budget is spent.
  int crash_per_mille = 50;
  std::int64_t max_total_steps = 1'000'000;

  RandomRunConfig() { crash_budget = 8; }
};

struct RandomRunReport {
  bool all_decided = false;
  std::vector<typesys::Value> outputs;  // every output event, in order
  std::int64_t steps = 0;
  int crashes = 0;
  std::optional<PropertyViolation> violation;
  // The schedule actually executed, replayable through sim::replay.
  std::vector<ScheduleEvent> schedule;
};

// Runs one randomly scheduled execution to completion (all processes decided)
// or until max_total_steps.
RandomRunReport run_random(Memory memory, std::vector<Process> processes,
                           const RandomRunConfig& config);

}  // namespace rcons::sim

#endif  // RCONS_SIM_RANDOM_RUNNER_HPP
