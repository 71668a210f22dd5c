#include "sim/random_runner.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rcons::sim {

using typesys::Value;

namespace {

RandomRunReport run_random_impl(Memory& memory, std::vector<Process>& processes,
                                const RandomRunConfig& config) {
  RCONS_ASSERT(!processes.empty());
  RCONS_ASSERT_MSG(config.crash_per_mille >= 0 && config.crash_per_mille <= 1000,
                   "crash_per_mille is a numerator over 1000");
  util::Rng rng(config.seed);
  const int n = static_cast<int>(processes.size());
  std::vector<std::uint8_t> done(processes.size(), 0);
  std::vector<std::int64_t> steps_in_run(processes.size(), 0);
  RandomRunReport report;

  // Property tracking state (sim/properties.hpp): the sorted distinct-output
  // set and, when at-most-once decide is on, the per-process output memory
  // (which crashes must not clear).
  std::vector<Value> distinct_outputs;
  std::vector<std::uint8_t> ever_output;
  std::vector<Value> last_output;
  if (config.properties.at_most_once()) {
    ever_output.assign(processes.size(), 0);
    last_output.assign(processes.size(), 0);
  }

  while (report.steps < config.max_total_steps) {
    // Count runnable processes.
    int runnable = 0;
    for (int i = 0; i < n; ++i) runnable += done[static_cast<std::size_t>(i)] == 0;
    if (runnable == 0) {
      report.all_decided = true;
      return report;
    }

    // Crash injection.
    if (report.crashes < config.crash_budget &&
        rng.chance(static_cast<std::uint64_t>(config.crash_per_mille), 1000)) {
      if (config.crash_model == CrashModel::kSimultaneous) {
        for (int i = 0; i < n; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          processes[idx].reset();
          done[idx] = 0;
          steps_in_run[idx] = 0;
        }
        report.crashes += 1;
        report.schedule.push_back(ScheduleEvent::crash_all());
        continue;
      }
      const int victim = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const auto idx = static_cast<std::size_t>(victim);
      processes[idx].reset();
      done[idx] = 0;
      steps_in_run[idx] = 0;
      report.crashes += 1;
      report.schedule.push_back(ScheduleEvent::crash(victim));
      continue;
    }

    // Pick a runnable process uniformly.
    int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(runnable)));
    int chosen = -1;
    for (int i = 0; i < n; ++i) {
      if (done[static_cast<std::size_t>(i)] != 0) continue;
      if (pick-- == 0) {
        chosen = i;
        break;
      }
    }
    RCONS_ASSERT(chosen >= 0);

    const auto idx = static_cast<std::size_t>(chosen);
    const StepResult result = processes[idx].step(memory);
    report.steps += 1;
    steps_in_run[idx] += 1;
    report.schedule.push_back(ScheduleEvent::step(chosen));
    if (auto violation = check_wait_freedom(config.properties, chosen,
                                            steps_in_run[idx],
                                            config.max_steps_per_run)) {
      report.violation = std::move(violation);
      return report;
    }
    if (result.kind == StepResult::Kind::kDecided) {
      done[idx] = 1;
      steps_in_run[idx] = 0;
      report.outputs.push_back(result.decision);
      if (auto violation =
              check_output(config.properties, chosen, result.decision,
                           distinct_outputs, ever_output, last_output)) {
        report.violation = std::move(violation);
        return report;
      }
    }
  }
  return report;  // all_decided stays false: starvation/livelock suspicion
}

}  // namespace

RandomRunReport run_random(Memory memory, std::vector<Process> processes,
                           const RandomRunConfig& config) {
  // One "random_run" span per call on the coordinator lane; run_random is
  // called from one thread at a time (the check loop), matching the tracer's
  // single-writer-per-lane contract.
  obs::Span span(config.obs.tracer, 0, "random_run");
  RandomRunReport report = run_random_impl(memory, processes, config);
  if (config.obs.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config.obs.metrics;
    registry.counter("random.runs").add(0, 1);
    if (report.steps > 0) {
      registry.counter("random.steps")
          .add(0, static_cast<std::uint64_t>(report.steps));
    }
    if (report.crashes > 0) {
      registry.counter("random.crashes")
          .add(0, static_cast<std::uint64_t>(report.crashes));
    }
    if (report.violation.has_value()) registry.counter("random.violations").add(0, 1);
  }
  return report;
}

}  // namespace rcons::sim
