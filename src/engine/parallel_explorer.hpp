// Exhaustive exploration of the deduplicated execution graph, with two
// traversals over one store, one counter record and one set of limits:
//
//   run()      — the worker loop (check::Strategy::kParallelBFS). Workers
//                expand nodes taken from a work-stealing frontier; each
//                reachable state is claimed by exactly one worker and
//                expanded exactly once.
//   run_dfs()  — the recursive depth-first traversal on the calling thread
//                (kSequentialDFS), in enumerate_events order. It stops at the
//                first violation it meets, which is what the pinned
//                counterexamples of the tests and the benchmark rely on.
//                With a probe cap (kAuto) it stops at that many states,
//                finishes the frames on its stack, and escalate() continues
//                from that cut in the worker loop — no state is explored
//                twice.
//
// Both traversals stay because only the depth-first order reproduces the
// pinned first violations: on algorithms whose steps can leave the encoding
// unchanged (halting-TAS) the worker loop's lowest-trace violation differs
// from the one the DFS meets first (ROADMAP, "Wait-freedom as a property of
// the state graph").
//
// On runs that complete (no truncation) the verdict and the visited /
// transition / terminal counts are independent of traversal and scheduling
// (decisions and orbit_skipped are too without a symmetry declaration; see
// ExplorerStats in engine/obs_cells.hpp). Truncated worker-loop runs stop
// racily: counts then vary run to run and `visited` can overshoot
// max_visited by up to one state per worker. The worker loop keeps exploring
// after a violation until the frontier drains and reports the
// lexicographically lowest trace among every violation it found (same event
// order as the DFS).
//
// The worker hot path is allocation-free, batch-oriented, and mutex-free:
// frontier items are stored inline and submitted/drained in batches
// (engine/frontier.hpp) with pop-batch sizes adapted to observed steal
// pressure, path backlinks come from per-worker append-only arenas
// (engine/path_arena.hpp), and dedup probes hit lock-free CAS-claimed slot
// tables (engine/cas_table.hpp) behind a small per-worker recently-inserted
// fingerprint cache. Nodes are interned value records in a NodeStore, which
// is also the visited set; each traversal decodes into a reusable scratch
// node instead of cloning Memory + N Process objects per successor
// (engine/node_store.hpp). A symmetry declaration
// (ExplorerConfig::symmetry_classes) makes the fingerprints canonical.
// tests/engine/differential_test.cpp checks both traversals against a naive
// reference explorer.
#ifndef RCONS_ENGINE_PARALLEL_EXPLORER_HPP
#define RCONS_ENGINE_PARALLEL_EXPLORER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/expand.hpp"
#include "engine/frontier.hpp"
#include "engine/node_store.hpp"
#include "engine/obs_cells.hpp"
#include "engine/path_arena.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

class ParallelExplorer {
 public:
  ParallelExplorer(sim::Memory initial, std::vector<sim::Process> processes,
                   sim::ExplorerConfig config);

  // Worker loop from the root (or from config.resume). Returns the lowest-
  // trace violation found, or nullopt if every execution satisfies the
  // properties. Each call starts over.
  std::optional<sim::Violation> run();

  // Depth-first traversal from the root on the calling thread. Returns the
  // first violation in DFS order, or nullopt. Each call starts over.
  //
  // A `probe_cap` below the budget's visited cap makes it kAuto's probe: on
  // interning state probe_cap + 1 it stops recursing but finishes the
  // remaining events of every frame on its stack — each new state deferred
  // with its path from the root, each violating edge kept as a candidate,
  // the time/memory limits not polled during that bounded drain — and
  // returns the visited-cap truncation. escalate() then continues.
  std::optional<sim::Violation> run_dfs(std::uint64_t probe_cap = ~std::uint64_t{0});

  // True when the last run_dfs() stopped at its probe cap.
  bool can_escalate() const { return !cut_.empty(); }
  // States that run_dfs() deferred at its probe cap (interned, not expanded).
  std::size_t deferred() const { return cut_.size(); }

  // Continues the last run_dfs() from its cut in the worker loop: the store
  // is re-sharded for the workers (records stay in place), the deferred
  // states are seeded with arena paths from the root (violation traces stay
  // full replayable schedules), counters carry on from the DFS totals, the
  // DFS's violation candidate stands unless a lower trace turns up, and the
  // deadline taken when run_dfs() started still applies. Verdicts and counts
  // equal a run() from the root. Requires can_escalate() and no checkpoint
  // or resume.
  std::optional<sim::Violation> escalate();

  const ExplorerStats& stats() const { return stats_; }

  // Resolved worker count. With num_threads = 0 it resolves when the worker
  // loop first starts (0 until then), so a depth-first run never queries the
  // hardware.
  int num_threads() const { return num_threads_; }

  // Per-worker conservation law: every counted transition is classified
  // exactly once — it discovered a new state (visited), hit a duplicate, was
  // a violating edge (never expanded further), or was skipped whole by orbit
  // reduction. Both traversals poll their limits before counting the next
  // transition, so the identity holds at every obs-flush boundary, at worker
  // exit and when run_dfs() returns; drift means a classification branch was
  // added without its tally (or a tally without its transition). Public so
  // the contract test can violate it on purpose and watch the DCHECK fire
  // under -DRCONS_FORCE_DCHECK=ON.
  static void dcheck_transitions_identity(const Tally& w) {
    RCONS_DCHECK_MSG(w.classified() == w.transitions,
                     "transitions identity violated: visited + duplicates + violation_edges + "
                     "orbit_skipped != transitions");
  }

 private:
  void resolve_threads();
  // Clears every per-run field; `limits_` gets a fresh deadline.
  void reset_run();

  // The time/memory limits of a run, polled inline every kPollTransitions
  // transitions by whichever traversal is active (each worker on its own
  // count). The deadline is absolute, taken when run() or run_dfs() starts.
  struct Limits {
    std::int64_t deadline_ms = 0;     // 0 = none
    std::uint64_t rss_cap_bytes = 0;  // 0 = none
    bool armed() const { return deadline_ms != 0 || rss_cap_bytes != 0; }
    sim::StopReason sample() const;   // kNone, kDeadline or kMemory
  };

  // The typed truncated verdict's description for `reason`.
  std::string truncation_description(sim::StopReason reason) const;
  // Fills stats_ from `total`, the store and the stop reason.
  void finish_stats(const Tally& total, sim::StopReason reason);

  // --- depth-first traversal -------------------------------------------------
  std::optional<sim::Violation> dfs(const typesys::Value* record, std::size_t size);
  // Every kPollTransitions transitions: flush metrics, sample the limits
  // (not while draining). Returns the truncated verdict when a limit tripped.
  std::optional<sim::Violation> dfs_poll();

  // --- worker loop -------------------------------------------------------------
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
  std::optional<sim::Violation> explore();
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

  // Watchdog / periodic-checkpoint monitor. Runs only when one of those is
  // enabled (monitor_needed()). `write_snapshot` (null when periodic
  // checkpointing is off) pauses the workers, gathers, resumes, and writes.
  bool monitor_needed() const;
  void monitor_loop(const std::function<bool()>& write_snapshot);
  void stop_monitor(std::thread& monitor);

  void worker(int id, CompactFrontier& frontier, PathArena& arena,
              std::atomic<std::uint64_t>& pending, Tally& local);

  void offer_violation(std::vector<Event> path, sim::PropertyViolation broken);
  void record_truncation(const PathLink* tail, const Event& event);

  sim::Memory initial_memory_;
  std::vector<sim::Process> initial_processes_;
  sim::ExplorerConfig config_;
  int num_threads_ = 0;
  int shard_bits_ = 0;

  ExplorerStats stats_;

  // Resolved metric handles for this run (inactive when config_.obs.metrics
  // is null). Resolved once per run; workers only touch lane-private cells.
  ObsCells obs_cells_;
  Limits limits_;

  // The interning store (also the visited set) of the current run. Kept
  // between run_dfs() and escalate(), released when a run ends.
  std::unique_ptr<NodeStore> store_;

  // Counts carried in before the workers start — the root, a resumed
  // checkpoint, or the depth-first run being escalated. Never flushed by the
  // workers: the root flushes itself, the DFS already did, and a
  // checkpoint's counts belong to the run that wrote it.
  Tally base_;

  // Depth-first state. One scratch node shared by every depth (restored from
  // the parent's record between successors — see NodeCodec::restore);
  // parent records are read in place from the store arena, so recursion
  // holds pointers instead of per-depth copies. events_pool_ holds per-depth
  // event buffers, reused across siblings — a deque because deeper recursion
  // grows it while shallower frames hold references into it. orbit_skip_ is
  // fully consumed by enumerate_events before recursion can overwrite it.
  std::unique_ptr<NodeCodec> codec_;
  Node scratch_node_;
  std::vector<typesys::Value> encode_scratch_;
  std::vector<std::uint8_t> orbit_skip_;
  std::vector<Event> path_;
  std::deque<std::vector<Event>> events_pool_;
  bool orbit_reduction_ = false;
  std::uint64_t dfs_cap_ = 0;
  Tally dfs_;
  Tally dfs_flushed_;
  std::uint64_t dfs_next_poll_ = 0;

  // The probe's cut: states interned after its cap but never expanded, in
  // DFS order, each with its path from the root. draining_ is set while the
  // stack is being finished.
  struct Deferred {
    const typesys::Value* record = nullptr;  // view into store_
    std::uint32_t length = 0;
    std::vector<Event> path;
  };
  std::vector<Deferred> cut_;
  bool draining_ = false;

  // Worker-loop state.
  std::atomic<std::uint64_t> visited_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};  // a truncation path was recorded

  // First stop reason wins (holds sim::StopReason as int; 0 = kNone).
  std::atomic<int> stop_reason_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::uint64_t resumed_checkpoints_ = 0;

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

  std::mutex violation_mu_;
  bool has_violation_ = false;
  std::vector<Event> best_path_;
  sim::PropertyViolation best_violation_;  // typed property + description
  std::vector<Event> truncation_path_;     // guarded by violation_mu_
  std::string watchdog_dump_;              // guarded by violation_mu_
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_PARALLEL_EXPLORER_HPP
