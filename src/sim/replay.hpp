// Scripted schedules: deterministic replay of a fixed event sequence.
// Used for regression tests of the specific adversarial scenarios discussed
// in the paper (Section 3.1's two "bad scenario" discussions) and for
// re-executing explorer-found violation schedules (sim::Violation::schedule
// uses the same ScheduleEvent vocabulary).
//
// Replay drives an engine::Node through engine::enumerate_events and
// engine::apply_event (engine/expand.hpp), the same event semantics and
// legality rule the explorers use: a schedule replays iff it is an execution
// of the model, and a violation reproduces with the identical typed property
// and description.
#ifndef RCONS_SIM_REPLAY_HPP
#define RCONS_SIM_REPLAY_HPP

#include <cstddef>
#include <optional>
#include <vector>

#include "check/budget.hpp"
#include "obs/hooks.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/properties.hpp"
#include "sim/schedule.hpp"

namespace rcons::sim {

struct ReplayReport {
  // Latest decision per process (nullopt if none yet in its current run).
  std::vector<std::optional<typesys::Value>> decisions;
  // Every output event across all runs, in schedule order, including the
  // decision that broke a property.
  std::vector<typesys::Value> outputs;
  std::optional<PropertyViolation> violation;  // first broken property, if any
  // Index of the first event the model does not allow where it occurs (a
  // process out of range, a step of a decided process, a crash over budget or
  // of the wrong kind for the crash model, a crash of a process that has not
  // stepped in its run). Replay stops there.
  std::optional<std::size_t> rejected;
  Memory final_memory;
};

// Runs the events in order and stops at the first violation or the first
// rejected event, whichever comes first. An event is legal iff
// engine::enumerate_events produces it at the node reached so far.
// `properties` selects what is verified (the classic trio by default; an
// empty valid set disables the validity check). `budget` supplies the crash
// model, the crash budget and the per-run step bound the wait-freedom
// property inherits; its exploration limits are ignored. `obs`
// (obs/hooks.hpp) optionally receives the replay.* counters and one "replay"
// span per call; the default disables both.
ReplayReport replay(Memory memory, std::vector<Process> processes,
                    const std::vector<ScheduleEvent>& schedule,
                    const PropertySet& properties = {}, const check::Budget& budget = {},
                    obs::Hooks obs = {});

}  // namespace rcons::sim

#endif  // RCONS_SIM_REPLAY_HPP
