// Stage isolation: the per-stage cost of the expansion pipeline, measured by
// driving the engine's public stage functions directly.
//
// measure_stages() first walks the instance's whole state space once with
// NodeCodec + NodeStore in the call pattern of one exploration driver — the
// parallel engine's worker loop (decode once per expansion, restore between
// successors, frontier push/pop per new state) or sim::Explorer's recursive
// DFS (a full re-decode after every descent). The walk counts how often each
// stage runs per visited state and must reproduce the pinned visited count.
// It then takes a seeded sample of the expanded states and times every stage
// alone over that sample, in ns per call; each stage's figure is the median
// over repeated timing loops. The stage sum — per-call costs weighted by
// calls per state — is what the caller compares with the program's measured
// single-thread ns per state (engine.stage_coverage).
#ifndef RCONS_PERFBENCH_STAGES_HPP
#define RCONS_PERFBENCH_STAGES_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "check/check.hpp"

namespace rcons::perfbench {

enum class Driver { kParallelEngine, kSequentialDfs };

struct StageReport {
  // Per call, keyed by the metric suffix: decode, restore, enumerate, apply,
  // encode, canonicalize, orbit_mask, intern_hit, intern_miss, frontier.
  std::map<std::string, double> ns_per_call;
  // How many calls of each stage one visited state costs under the driver.
  std::map<std::string, double> calls_per_state;
  double stage_sum_ns = 0.0;          // sum of ns_per_call x calls_per_state
  std::uint64_t walk_visited = 0;     // states the walk interned (root included)
  std::uint64_t sampled_parents = 0;  // expanded states the timing loops cover
};

// `system` must be clean under `budget` (the walk does not stop at
// violations). `seed` picks the sample; `sample_parents` bounds its size.
// `before_repetition` runs before each repetition of the timing loops (the
// benchmark moves to the next CPU there).
StageReport measure_stages(const check::ScenarioSystem& system,
                           const check::Budget& budget, Driver driver,
                           std::uint64_t seed, std::size_t sample_parents,
                           const std::function<void()>& before_repetition);

}  // namespace rcons::perfbench

#endif  // RCONS_PERFBENCH_STAGES_HPP
