// Shared contract of the exhaustive explorers (sequential `sim::Explorer` and
// parallel `engine::ParallelExplorer`): the violation report and run
// statistics. The tunable knobs live in `check::Budget` (check/budget.hpp),
// which both explorer configs derive from so the fields cannot drift.
//
// These live in their own header so `engine/` can depend on the contract
// without pulling in the sequential explorer (and vice versa).
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
// and ExplorerStats::stop_reason carrying the enum — never an abort.
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

  // --- robustness layer (engine/sentinel.hpp, engine/checkpoint.hpp) ------

  // Resource-sentinel sampling period. The parallel engine runs a monitor
  // thread at this cadence whenever a time/memory limit, the watchdog, or
  // periodic checkpointing is enabled; the sequential explorer polls its
  // limits inline at the same granularity as its obs flushes. Hot paths with
  // everything off never touch a clock.
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

// Statistics of the interned node store (engine/node_store.hpp).
struct NodeStoreStats {
  std::uint64_t nodes = 0;        // unique states interned (incl. the root)
  std::uint64_t value_bytes = 0;  // arena payload bytes across all records
  std::uint64_t encodes = 0;      // node encodings produced during the run
  std::uint64_t canonical_hits = 0;  // encodings the canonicalizer permuted

  double bytes_per_node() const {
    return nodes == 0 ? 0.0
                      : static_cast<double>(value_bytes) / static_cast<double>(nodes);
  }
  double canonical_hit_rate() const {
    return encodes == 0
               ? 0.0
               : static_cast<double>(canonical_hits) / static_cast<double>(encodes);
  }
};

// Per-state cost counters of the batched, allocation-free hot path
// (engine/frontier.hpp, engine/cas_table.hpp, engine/path_arena.hpp). The
// parallel engine fills all of them; the sequential explorer fills the
// probe-length and table counters (its store uses the same lock-free table)
// and leaves the frontier/arena/cache counters at zero.
struct HotPathStats {
  // Per-item heap allocations the pre-batching hot path would have made:
  // one `unique_ptr` wrapper per frontier item plus one `shared_ptr<PathLink>`
  // control block per push, now served by inline storage and arena links.
  std::uint64_t allocations_avoided = 0;

  std::uint64_t batches = 0;        // successor batches submitted to the frontier
  std::uint64_t batched_items = 0;  // items across those batches

  // Per-worker recently-inserted fingerprint cache, consulted before the
  // sharded store: a hit short-circuits the table probe entirely.
  std::uint64_t dedup_cache_probes = 0;
  std::uint64_t dedup_cache_hits = 0;

  // Probing across the NodeStore's lock-free CasTable index, counted per
  // worker.
  std::uint64_t probe_total = 0;  // slots inspected
  std::uint64_t probe_ops = 0;    // operations that probed
  std::uint64_t max_probe = 0;    // longest single probe sequence
  std::uint64_t rehashes = 0;     // table growth epochs

  // Lock-free table contention (zero on the single-threaded paths):
  // slot-claim CASes lost to a racing worker, and growth stripes migrated
  // cooperatively while helping an epoch-based table resize.
  std::uint64_t cas_retries = 0;
  std::uint64_t migration_stripes = 0;

  double avg_batch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(batched_items) / static_cast<double>(batches);
  }
  double cache_hit_rate() const {
    return dedup_cache_probes == 0 ? 0.0
                                   : static_cast<double>(dedup_cache_hits) /
                                         static_cast<double>(dedup_cache_probes);
  }
  double avg_probe() const {
    return probe_ops == 0
               ? 0.0
               : static_cast<double>(probe_total) / static_cast<double>(probe_ops);
  }
};

// Run counters. `visited`, `transitions` and `terminal_states` do not depend
// on traversal order: every driver and thread count reports the same figures
// for a complete run. With a symmetry declaration, `decisions` and
// `orbit_skipped` do. The sidecar step counts lie outside the fingerprint, so
// the concrete state that first reaches an orbit fixes them, and with them
// which sibling events the orbit mask skips (a skipped event counts no
// decision). Measured on Sn(3) n=3 c=2 with
// reduction (decisions/orbit_skipped): 1,541/873 under kSequentialDFS, and
// 1,540/841 and 1,545/836 under kParallelBFS at 1 and 4 threads.
struct ExplorerStats {
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;

  // Per-process events dropped because their process was a non-representative
  // member of a stabilizer orbit (symmetry reduction only; see
  // engine::Canonicalizer::orbit_mask). Counted as transitions, so
  // transitions == visited + duplicates + violation_edges + orbit_skipped.
  std::uint64_t orbit_skipped = 0;

  bool truncated = false;  // stopped early — verdict incomplete

  // Why the run stopped early (kNone when !truncated). The legacy boolean is
  // kept in sync so existing callers keep working: truncated == (stop_reason
  // != kNone).
  StopReason stop_reason = StopReason::kNone;

  // Durable checkpoints written during the run (0 when checkpointing is off
  // or every write was faulted away).
  std::uint64_t checkpoints_written = 0;

  NodeStoreStats store;
  HotPathStats hot;
};

}  // namespace rcons::sim

#endif  // RCONS_SIM_EXPLORER_CONFIG_HPP
