// The unified checking facade: one entry point over all four execution
// backends.
//
//   CheckRequest  = ScenarioSystem (what to check) + Budget (how hard / what
//                   counts as correct) + Strategy (which backend)
//   check()       = run it
//   CheckReport   = merged superset of the per-backend reports, tagged with
//                   the strategy actually used and the wall time
//
// Strategies:
//   kSequentialDFS — engine::ParallelExplorer::run_dfs. Deterministic
//                    first-violation DFS on the calling thread; the right
//                    tool when a test pins a specific counterexample.
//   kParallelBFS   — engine::ParallelExplorer::run, the worker loop. Same
//                    deduplicated graph, all cores; reports the
//                    lexicographically lowest violation.
//   kRandomized    — sim::run_random, `runs` seeded executions (seed, seed+1,
//                    ...). Sampling, not proof: `complete` stays false.
//   kReplay        — sim::replay of `schedule`. Deterministic re-execution of
//                    one schedule — e.g. a Violation::schedule from any other
//                    strategy — under the budget's crash model and crash
//                    budget. It stops at the first violation or at the first
//                    event the model does not allow (`rejected`).
//   kAuto          — starts with a bounded sequential probe (up to
//                    `auto_probe_limit` states, 32,768 by default: every
//                    checked-in spec and corpus scenario fits). If the
//                    probe finishes, the instance was small and the probe's
//                    verdict is returned as kSequentialDFS, as it is when
//                    the probe stops on the real budget or a time/memory
//                    limit. A probe stopped on its own visited cap finishes
//                    the frames on its DFS stack, and the same explorer
//                    object escalates: its worker loop continues from the
//                    probe's store and stack cut with the probe's counters
//                    and under the deadline taken when the probe started —
//                    no state is explored twice.
//
// Every violation carries its typed schedule, so a counterexample found by
// any strategy can be handed back to check() with kReplay (or sim::replay
// directly) for deterministic reproduction — replay verifies agreement,
// validity, and (given the same budget) the wait-freedom bound. The one
// exception is the "exceeded max_visited" truncation marker: it flags an
// exhausted search budget, not a property violation, and its schedule
// replays clean.
#ifndef RCONS_CHECK_CHECK_HPP
#define RCONS_CHECK_CHECK_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/budget.hpp"
#include "engine/obs_cells.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace rcons::check {

// A materialized system under check: shared memory, the processes, the typed
// property set the outputs are judged against, and (optionally) the system's
// symmetry declaration.
struct ScenarioSystem {
  sim::Memory memory;
  std::vector<sim::Process> processes;

  // What counts as a correct outcome (sim/properties.hpp): the classic trio
  // (agreement, validity, wait-freedom) by default. The validity output set
  // lives inside (`properties.valid_outputs`) — this replaces the old
  // Budget.valid_outputs / system.valid_outputs dual fallback: the system is
  // the one owner of its correctness contract.
  sim::PropertySet properties;

  // Equivalence classes of interchangeable processes (identical programs on
  // identical inputs); empty disables symmetry reduction. The exhaustive
  // backends canonicalize same-class process blocks before fingerprinting, so
  // symmetric states deduplicate to one visited node (engine/node_store.hpp).
  // Verdicts are preserved; a violation schedule found under reduction is
  // valid up to a class permutation and may not replay verbatim.
  std::vector<int> symmetry_classes;
};

enum class Strategy {
  kAuto,
  kSequentialDFS,
  kParallelBFS,
  kRandomized,
  kReplay,
};

const char* strategy_name(Strategy strategy);

struct CheckRequest {
  ScenarioSystem system;
  Budget budget;  // how hard to try; system.properties says what "correct" means
  Strategy strategy = Strategy::kAuto;

  // kAuto: state spaces the bounded depth-first probe fully explores within
  // this many states stay sequential; larger ones continue in the worker
  // loop. Every checked-in spec and corpus scenario finishes within 8,836
  // states, and from Sn(3) n=3 c=2 (6,081 states) on, the worker loop at
  // two threads already beats the depth-first run (BENCH_parallel_engine.json),
  // so the probe stops at 32,768 states.
  std::uint64_t auto_probe_limit = 32'768;

  // kParallelBFS (and the kAuto escalation path):
  int num_threads = 0;  // 0 = hardware concurrency

  // kRandomized:
  std::uint64_t seed = 1;
  int runs = 1;  // seeded runs: seed, seed+1, ..., stopping at a violation
  int crash_per_mille = 50;
  std::int64_t max_total_steps = 1'000'000;

  // kReplay:
  std::vector<sim::ScheduleEvent> schedule;

  // Robustness layer (exhaustive strategies; see sim/explorer_config.hpp for
  // the field contracts). Durable checkpoints and resume live in the parallel
  // engine only, so kAuto routes straight to the engine — no probe — whenever
  // checkpoint_path or resume is set. The budget's
  // time_limit_ms / mem_limit_mb ride along inside `budget`.
  int sentinel_interval_ms = 50;
  int watchdog_stall_intervals = 0;
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_label;
  const engine::CheckpointData* resume = nullptr;
  engine::FaultPlan* fault = nullptr;

  // Observability sinks (obs/hooks.hpp), forwarded to whichever backend runs:
  // a metrics registry receives the check./engine./store./random./replay.*
  // taxonomy (obs/session.cpp lists it), a tracer receives phase and worker
  // spans. Null members (the default) disable the instrumentation. The
  // registry is not reset by check() — callers sharing one registry across
  // checks reset between them. On kAuto escalation the probe's flushes are
  // part of the totals, as its work is part of the engine's ExplorerStats;
  // check.probe_visited counts the states the probe expanded itself.
  obs::Hooks obs;
};

// Merged superset of engine::ExplorerStats / RandomRunReport / ReplayReport.
struct CheckReport {
  Strategy strategy = Strategy::kSequentialDFS;  // strategy actually executed
  bool clean = false;     // no violation found
  bool complete = false;  // exhaustive and untruncated: the verdict is a proof
  std::optional<sim::Violation> violation;

  // Exhaustive strategies (sequential / parallel / auto): the engine's
  // counter record with the stop reason — every classified transition
  // (visited, duplicates, violation_edges, orbit_skipped), the store's
  // records and bytes, and the hot-path work. With a checkpoint path,
  // `stats.checkpoint_error` says why the final checkpoint was not written.
  engine::ExplorerStats stats;

  // Worker threads the executed backend actually resolved and ran with:
  // 1 for the sequential strategies (and the kAuto probe verdict), the
  // engine's resolved count — request.num_threads or hardware concurrency —
  // for kParallelBFS and the kAuto escalation. 0 for non-exhaustive
  // strategies. Benchmarks report this, never the requested number.
  int threads_used = 0;

  // kRandomized:
  int runs = 0;             // seeded runs executed
  int incomplete_runs = 0;  // runs that hit max_total_steps before all decided
  std::int64_t total_steps = 0;
  int total_crashes = 0;

  // kReplay (and the violating/last run of kRandomized):
  std::vector<typesys::Value> outputs;
  std::vector<std::optional<typesys::Value>> decisions;
  // kReplay: index of the first schedule event the scenario's model does not
  // allow where it occurs (sim::ReplayReport::rejected). Replay stopped
  // there, so `clean` then covers only the events before it.
  std::optional<std::size_t> rejected;

  // Final aggregated state of the request's metrics registry (empty when no
  // registry was installed). Taken after the backend finished, so e.g.
  // engine.visited_states here equals stats.visited for the exhaustive
  // strategies — tests/obs/metrics_test.cpp pins that equality.
  obs::MetricsSnapshot metrics;

  double seconds = 0.0;  // wall time of the whole check
};

// Runs the request through the selected backend. The request is consumed;
// strategies that execute several runs copy the pristine system per run.
CheckReport check(CheckRequest request);

// The config hash (engine::checkpoint_config_hash) a checkpoint written by
// check(request) carries, from the same explorer config check() builds. A
// resume whose checkpoint holds another hash would trip the engine's assert,
// so callers compare first and reject the checkpoint as input.
std::uint64_t checkpoint_config_hash(const CheckRequest& request);

}  // namespace rcons::check

#endif  // RCONS_CHECK_CHECK_HPP
