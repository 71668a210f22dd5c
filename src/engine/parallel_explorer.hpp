// Multi-threaded exhaustive exploration with the same contract as
// `sim::Explorer`.
//
// Workers expand nodes taken from a work-stealing frontier and deduplicate
// through a sharded store; each reachable global state is claimed by exactly
// one worker and expanded exactly once. On runs that complete (no max_visited
// truncation) this makes the *verdict* (violation-or-clean), the
// visited/transition/decision/terminal counts, and the set of violating
// edges all independent of scheduling. Truncated runs stop racily: counts
// then vary run to run and `visited` can overshoot max_visited by up to one
// state per worker. What a race can change on complete runs is which path
// first claims a state, and therefore the trace prefix attached to a
// violation; the engine reports the lexicographically lowest trace among
// every violation discovered (same event order the sequential DFS uses),
// which pins the report for algorithms whose local state advances every
// step — all of the repository's real ones.
//
// The hot path is allocation-free, batch-oriented, and mutex-free: frontier
// items are stored inline and submitted/drained in batches
// (engine/frontier.hpp) with pop-batch sizes adapted to observed steal
// pressure, path backlinks come from per-worker append-only arenas instead
// of shared_ptr allocations (engine/path_arena.hpp), and dedup probes hit
// lock-free CAS-claimed slot tables (engine/cas_table.hpp) behind a small
// per-worker recently-inserted fingerprint cache that short-circuits
// duplicate probes before touching the shared tables at all.
// ExplorerStats::hot counts the work saved and the contention observed.
//
// Nodes are interned value records in a sharded NodeStore, which is also the
// visited set; frontier items carry views of those records, and each worker
// decodes into a reusable scratch node instead of cloning Memory + N Process
// objects per successor (engine/node_store.hpp). A symmetry declaration
// (ExplorerConfig::symmetry_classes) makes the fingerprints canonical.
// tests/engine/differential_test.cpp checks both drivers against a naive
// reference explorer.
//
// Unlike the sequential explorer, which stops at the first violation its DFS
// meets, the parallel engine keeps exploring until the frontier drains (or
// `max_visited` truncates the search) and then reports the best violation.
// On clean instances — the expensive case that motivates parallelism — the
// two explorers do identical work.
#ifndef RCONS_ENGINE_PARALLEL_EXPLORER_HPP
#define RCONS_ENGINE_PARALLEL_EXPLORER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/expand.hpp"
#include "engine/frontier.hpp"
#include "engine/handoff.hpp"
#include "engine/node_store.hpp"
#include "engine/obs_cells.hpp"
#include "engine/path_arena.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

struct ParallelExplorerConfig : sim::ExplorerConfig {
  int num_threads = 0;  // 0 = std::thread::hardware_concurrency()
  int shard_bits = -1;  // -1 = auto via pick_shard_bits(); valid fixed: [0, 16]
};

class ParallelExplorer {
 public:
  ParallelExplorer(sim::Memory initial, std::vector<sim::Process> processes,
                   ParallelExplorerConfig config);

  // Explores the full (deduplicated) execution graph. Returns the lowest-
  // trace violation found, or nullopt if every execution satisfies the
  // properties. Callable repeatedly; each call restarts from the root.
  std::optional<sim::Violation> run();

  // Continues a kAuto probe that stopped on its visited cap
  // (engine/handoff.hpp) instead of starting from the root: takes ownership
  // of the probe's store (re-sharding its index for this run's shards and
  // workers), seeds the frontier with its deferred states (each given an
  // arena path from the root, so violation traces stay full replayable
  // schedules), starts every counter from the probe's totals, and keeps its
  // violation candidate unless a lower trace turns up. Verdicts and counts
  // equal a run from the root. Requires no checkpoint or resume.
  std::optional<sim::Violation> run(ProbeHandoff handoff);

  const sim::ExplorerStats& stats() const { return stats_; }

  // Store shard occupancy and frontier steal/batch counts of the last run().
  const NodeStore::LoadStats& visited_stats() const { return visited_stats_; }
  const CompactFrontier::Stats& frontier_stats() const { return frontier_stats_; }

  int num_threads() const { return num_threads_; }
  int shard_bits() const { return shard_bits_; }

  // Public (not private) so the contract test can violate it on purpose and
  // watch the DCHECK fire under -DRCONS_FORCE_DCHECK=ON.
  struct WorkerStats {
    std::uint64_t transitions = 0;
    std::uint64_t decisions = 0;
    std::uint64_t terminal_states = 0;
    std::uint64_t orbit_skipped = 0;
    std::uint64_t encodes = 0;
    std::uint64_t canonical_hits = 0;
    std::uint64_t allocations_avoided = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_items = 0;
    std::uint64_t cache_probes = 0;
    std::uint64_t cache_hits = 0;
    // Lock-free table work (probe lengths, lost claim CASes, migration
    // stripes helped) — accumulated caller-side so the tables never bounce a
    // shared stats cache line between workers.
    CasTable::OpStats ops;
    // Observability-only tallies (not part of ExplorerStats): states this
    // worker inserted, duplicate successors it skipped, violating edges it
    // found, and the interned records/bytes it added to the store.
    std::uint64_t visited = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t violation_edges = 0;
    std::uint64_t store_nodes = 0;
    std::uint64_t store_bytes = 0;
  };

  // Per-worker conservation law: every counted transition is classified
  // exactly once — it discovered a new state (visited), hit a duplicate, was
  // a violating edge (never expanded further), or was skipped whole by orbit
  // reduction. The worker loop restores this identity at every obs-flush
  // boundary and at worker exit; drift means a classification branch was
  // added without its tally (or a tally without its transition).
  static void dcheck_transitions_identity(const WorkerStats& w) {
    RCONS_DCHECK_MSG(
        w.visited + w.duplicates + w.violation_edges + w.orbit_skipped == w.transitions,
        "transitions identity violated: visited + duplicates + violation_edges + "
        "orbit_skipped != transitions");
  }

 private:
  void reset_run();
  // `handoff` is null for a run from the root (or a resume).
  std::optional<sim::Violation> explore(ProbeHandoff* handoff);
  // Seeds the frontier, counters and violation candidate from a probe.
  void seed_from_probe(ProbeHandoff& handoff, CompactFrontier& frontier,
                       PathArena& arena, std::atomic<std::uint64_t>& pending);

  // --- robustness layer -----------------------------------------------------
  //
  // Cooperative stop: request_stop records the first reason (CAS,
  // first-writer-wins) and flips stop_. Workers observe stop_ at their loop
  // top, hand any in-hand batch back to the frontier (still pending-counted,
  // so a checkpoint sees every outstanding item) and exit; a worker stopped
  // mid-expansion re-queues the partially-expanded item without releasing
  // its pending slot — re-expansion after a resume only produces duplicate
  // interns, so visited counts stay exact. Workers may therefore exit with
  // pending > 0; every exit path is either "frontier drained" (pending == 0)
  // or "stop observed".
  void request_stop(sim::StopReason reason);

  // Pause barrier for consistent checkpoints: the monitor sets
  // pause_flag_, workers hand their batches back and park in
  // worker_pause_point() until resume_workers(). When every live worker is
  // parked the frontier holds ALL pending items and the store is quiescent —
  // the consistent cut the checkpoint serializes. pause_workers() aborts
  // (returning false) on a stop or if a worker fails to park within a grace
  // period (e.g. wedged by fault injection) — a checkpoint is then skipped,
  // never deadlocked on.
  bool pause_workers();
  void resume_workers();
  void worker_pause_point();
  void worker_exit(int id);

  // Resource sentinel / watchdog / periodic-checkpoint monitor. Runs only
  // when one of those features is enabled (monitor_needed()); hot paths with
  // everything off never touch a clock. `write_snapshot` (null when
  // checkpointing is off) pauses the workers, gathers, resumes, and writes.
  bool monitor_needed() const;
  void monitor_loop(const std::function<bool()>& write_snapshot);
  void stop_monitor(std::thread& monitor);

  std::string truncation_description() const;

  // Adds the delta between `local` and the worker's last flush into the
  // registry cells and refreshes the frontier-pending gauge (obs_cells.hpp).
  void flush_worker_obs(std::size_t lane, WorkerStats& last_flushed,
                        const WorkerStats& local, std::uint64_t pending_now);

  void worker(int id, CompactFrontier& frontier, NodeStore& store, PathArena& arena,
              std::atomic<std::uint64_t>& pending, WorkerStats& local);

  void offer_violation(std::vector<Event> path, sim::PropertyViolation broken);
  void record_truncation(const PathLink* tail, const Event& event);
  std::optional<sim::Violation> finish(const std::vector<WorkerStats>& worker_stats);

  sim::Memory initial_memory_;
  std::vector<sim::Process> initial_processes_;
  ParallelExplorerConfig config_;
  int num_threads_;
  int shard_bits_;

  sim::ExplorerStats stats_;
  NodeStore::LoadStats visited_stats_;
  CompactFrontier::Stats frontier_stats_;

  // Resolved metric handles for this run (inactive when config_.obs.metrics
  // is null). Resolved once in run(); workers only touch lane-private cells.
  ObsCells obs_cells_;

  std::atomic<std::uint64_t> visited_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};  // a truncation path was recorded

  // First stop reason wins (holds sim::StopReason as int; 0 = kNone).
  std::atomic<int> stop_reason_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};

  // Per-worker progress heartbeats, bumped once per frontier item; the
  // monitor's watchdog samples them per sentinel interval. kHeartbeatExited
  // marks a worker that returned (never a stall).
  struct alignas(64) Heartbeat {
    std::atomic<std::uint64_t> beats{0};
  };
  static constexpr std::uint64_t kHeartbeatExited = ~std::uint64_t{0};
  std::unique_ptr<Heartbeat[]> heartbeats_;

  // Pause barrier state (see pause_workers). pause_flag_ mirrors
  // pause_requested_ for the workers' relaxed fast-path check.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;   // workers wait here while paused
  std::condition_variable parked_cv_;  // coordinator waits for a full park
  bool pause_requested_ = false;       // guarded by pause_mu_
  int parked_ = 0;                     // guarded by pause_mu_
  int live_workers_ = 0;               // guarded by pause_mu_
  std::atomic<bool> pause_flag_{false};

  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_exit_ = false;  // guarded by monitor_mu_

  // Baseline carried in from a resumed checkpoint or a kAuto probe, added
  // back in finish().
  std::uint64_t resume_visited_ = 0;
  std::uint64_t resume_transitions_ = 0;
  std::uint64_t resume_decisions_ = 0;
  std::uint64_t resume_terminal_states_ = 0;
  std::uint64_t resume_orbit_skipped_ = 0;
  std::uint64_t resume_encodes_ = 0;
  std::uint64_t resume_canonical_hits_ = 0;
  std::uint64_t resume_checkpoints_ = 0;

  std::mutex violation_mu_;
  bool has_violation_ = false;
  std::vector<Event> best_path_;
  sim::PropertyViolation best_violation_;  // typed property + description
  std::vector<Event> truncation_path_;     // guarded by violation_mu_
  std::string watchdog_dump_;              // guarded by violation_mu_
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_PARALLEL_EXPLORER_HPP
