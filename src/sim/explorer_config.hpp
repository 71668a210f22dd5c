// Contract of the exhaustive explorer (`engine::ParallelExplorer`, whose
// depth-first and worker-loop traversals back kSequentialDFS and
// kParallelBFS): its configuration, the violation report and why a run
// stopped early. The tunable knobs live in `check::Budget`
// (check/budget.hpp), which the config derives from so they cannot drift
// from the other backends'. The run statistics are engine::ExplorerStats
// (engine/obs_cells.hpp).
#ifndef RCONS_SIM_EXPLORER_CONFIG_HPP
#define RCONS_SIM_EXPLORER_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "check/budget.hpp"
#include "obs/hooks.hpp"
#include "sim/properties.hpp"
#include "sim/schedule.hpp"

namespace rcons::engine {
class FaultPlan;        // engine/fault_inject.hpp
struct CheckpointData;  // engine/checkpoint.hpp
}  // namespace rcons::engine

namespace rcons::sim {

// Why an exhaustive run stopped before draining the state space. kNone means
// it did not stop early (the verdict is exhaustive). Every other reason
// produces the typed truncated verdict: a sim::Violation with
// PropertyKind::kNone whose description names the reason, full partial stats,
// and engine::ExplorerStats::stop_reason carrying the enum — never an abort.
enum class StopReason {
  kNone,        // ran to completion (or to a property violation)
  kVisitedCap,  // Budget::max_visited exhausted
  kDeadline,    // Budget::time_limit_ms exceeded (resource sentinel)
  kMemory,      // Budget::mem_limit_mb exceeded, or an allocation failed
  kWatchdog,    // a worker made no progress for N sentinel intervals
  kForcedStop,  // external cooperative stop (fault injection / harness)
};

const char* stop_reason_name(StopReason reason);

// Historical spelling of the crash models; the definition now lives with the
// rest of the shared budget in check/budget.hpp.
using CrashModel = check::CrashModel;

struct ExplorerConfig : check::Budget {
  // What counts as a correct outcome (sim/properties.hpp): the classic trio
  // by default. The validity set lives inside (properties.valid_outputs); the
  // wait-freedom property inherits Budget::max_steps_per_run unless it
  // carries its own bound.
  PropertySet properties;

  // Symmetry declaration: symmetry_classes[i] is the equivalence class of
  // process i, where processes in the same class run *identical* programs
  // (same team, same operation, same input — e.g. same-team processes of the
  // Figure 2 algorithm). Empty disables symmetry reduction. When non-empty,
  // the explorers canonicalize the per-process blocks of each node encoding
  // (sorting same-class blocks) before fingerprinting, so states that differ
  // only by permuting interchangeable processes deduplicate to one visited
  // node. Verdicts are unaffected; violation schedules are then valid up to a
  // class permutation and may not replay verbatim (see engine/node_store.hpp).
  std::vector<int> symmetry_classes;

  // Observability sinks (obs/hooks.hpp): the metrics registry the explorers
  // flush their counters into at batch boundaries and the tracer that
  // receives worker spans. Null members (the default) disable the
  // corresponding instrumentation entirely — the hot loops keep counting in
  // their plain per-worker locals either way, so a disabled sink costs
  // nothing per state.
  obs::Hooks obs;

  // Worker-loop threads; 0 = std::thread::hardware_concurrency(), resolved
  // when the worker loop first starts.
  int num_threads = 0;

  // --- robustness layer (engine/sentinel.hpp, engine/checkpoint.hpp) ------

  // Watchdog and periodic-checkpoint period: the worker loop runs a monitor
  // thread at this cadence when either is enabled. The time and memory
  // limits are not sampled here: whichever traversal is running polls them
  // inline every 1024 transitions. Hot paths with everything off never touch
  // a clock.
  int sentinel_interval_ms = 50;

  // Watchdog: fail the run (StopReason::kWatchdog, with a per-worker
  // heartbeat dump in the verdict description) when any live worker's
  // heartbeat does not advance for this many consecutive sentinel intervals.
  // 0 disables the watchdog.
  int watchdog_stall_intervals = 0;

  // Durable checkpoints (parallel engine only):
  // when checkpoint_path is non-empty the run writes a final checkpoint at
  // exit, plus an intermediate one each time `checkpoint_every` further
  // states have been visited (0 = final only). `resume`, when non-null,
  // seeds the run from a previously loaded checkpoint instead of the root;
  // the caller must have validated the checkpoint's config hash
  // (engine::checkpoint_config_hash).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  // Caller-chosen identity line stored in every checkpoint (the CLI uses the
  // formatted scenario spec) so a resume can reject a mismatched file with a
  // human-readable diff, not just a hash mismatch.
  std::string checkpoint_label;
  const engine::CheckpointData* resume = nullptr;

  // Deterministic fault injection (engine/fault_inject.hpp). Null — the
  // default — is the zero-cost path: one predicted null check per injection
  // point.
  engine::FaultPlan* fault = nullptr;
};

// A property violation plus the typed schedule that produced it. The schedule
// round-trips through `sim::replay` (same event vocabulary), so any
// explorer-found counterexample can be re-executed deterministically for
// debugging, minimization, or regression capture. `property` is the typed
// identity of the broken property — it survives check::minimize, `.viol`
// round-trips, and cross-backend replay (kNone marks non-property reports
// like the max_visited truncation notice).
struct Violation {
  std::string description;
  PropertyKind property = PropertyKind::kNone;
  std::int64_t property_param = 0;  // k for k-set agreement, bound for wait-freedom
  std::vector<ScheduleEvent> schedule;

  // Human-readable rendering of the schedule.
  std::string trace() const;
};

}  // namespace rcons::sim

#endif  // RCONS_SIM_EXPLORER_CONFIG_HPP
