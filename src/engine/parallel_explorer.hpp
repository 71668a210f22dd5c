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
// Both expand a state through one step, expand(), in one order: a build
// loop builds the successor of every event, starting the load of each one's
// index slot, then a classify loop counts each transition and runs the
// traversal's compile-time hooks in event order (when to stop, what a
// violating edge and a new state do, how a record is interned). The index is
// larger than the caches, so an intern is mostly a wait on memory; building
// first lets those waits overlap. An expansion keeps what it built in a
// frame (the pieces, a successor per event and the violations): each worker
// has one, and the DFS one per depth, since it recurses into a new state
// from inside the classify loop and classifies the later successors after
// it returns, from a frame the recursion did not touch. The codec, with its
// class tables and encode scratch, is one per traversal; a DFS frame also
// keeps its parent's captured layout and digests across the recursion.
// Each expansion decodes its parent once, and again only after a crash-all
// event.
//
// Classification is in event order in both traversals, so every counter, the
// transitions identity and the lowest-trace rule are the same in both. The
// build loop keeps a successor as the pieces in which it differs from the
// parent (NodeCodec::Delta), fingerprinted from the parent's block digests,
// and the classify loop's intern writes its record into the store only when
// it is new (NodeStore::intern with a writer): a duplicate, most successors,
// costs its pieces, its fingerprint and one probe.
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
// The worker loop runs on num_threads() threads while the thread that
// called run() or escalate() coordinates: once per sentinel interval it scans
// the heartbeats for the watchdog and checks whether a periodic checkpoint is
// due. The workers yield — leave between items, to be restarted on the same
// frontier and store — for two reasons: a periodic checkpoint is due, or a
// worker's intern took the index past its growth threshold. The coordinator
// gathers every checkpoint, periodic or final, and grows the index only
// after the workers joined (see explore()), so the index never grows while
// a worker inserts.
//
// The worker hot path is allocation-free, batch-oriented, and mutex-free:
// frontier items are stored inline and drained in batches (engine/
// frontier.hpp) with pop-batch sizes adapted to observed steal pressure; a
// worker collects the successors of a whole popped batch and hands them
// over once, with one RMW on the shared pending count and one push_batch;
// path backlinks come from per-worker append-only arenas
// (engine/path_arena.hpp), and every worker interns straight into one
// lock-free CAS-claimed slot index (engine/cas_table.hpp). Nodes are interned
// value records in a NodeStore, which is also the visited set; the step
// decodes into the traversal's reusable node instead of cloning Memory + N
// Process objects per successor (engine/node_store.hpp). A symmetry
// declaration (ExplorerConfig::symmetry_classes) makes the fingerprints
// canonical.
// tests/engine/differential_test.cpp checks both traversals against a naive
// reference explorer.
#ifndef RCONS_ENGINE_PARALLEL_EXPLORER_HPP
#define RCONS_ENGINE_PARALLEL_EXPLORER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
  // gains an arena per worker (records and index stay in place), the deferred
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

  // Per-traversal conservation law: every counted transition is classified
  // exactly once — it discovered a new state (visited), hit a duplicate, was
  // a violating edge (never expanded further), or was skipped whole by orbit
  // reduction. The expansion step checks its stop hook before counting the
  // next transition, so the identity holds at every obs-flush boundary, at
  // worker exit and when run_dfs() returns. Public so the contract test can
  // violate it on purpose and watch the DCHECK fire under
  // -DRCONS_FORCE_DCHECK=ON.
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

  // The typed truncated verdict: a reason-specific description, no property,
  // and `path` as the best-effort partial trace.
  sim::Violation truncated(sim::StopReason reason, std::vector<Event> path) const;
  // Fills stats_ from `total`, the store and the stop reason.
  void finish_stats(const Tally& total, sim::StopReason reason);

  // --- the expansion step ------------------------------------------------------
  //
  // What the build loop leaves for the classify loop about one event: the
  // event, the successor's Delta (its fingerprint, where its pieces lie in
  // the frame's piece buffer, whether the canonicalizer permuted it) and
  // whether it decided a new value; or `broken`, when the event breaks a
  // property and its violation waits in the frame instead.
  struct Successor {
    Event event;
    NodeCodec::Delta delta;
    bool decided = false;
    bool broken = false;
  };

  // What an expansion uses only up to the end of its build loop, one per
  // traversal: the codec (class tables, encode scratch and the parent it
  // decoded); the traversal's copy of the root (make_root), in which each
  // successor is restored from the parent's record instead of cloned; and
  // the parent's orbit mask and events.
  struct Scratch {
    Scratch(Node root, const std::vector<int>& symmetry_classes)
        : codec(symmetry_classes), node(std::move(root)) {}
    NodeCodec codec;
    Node node;
    std::vector<std::uint8_t> orbit_skip;
    std::vector<Event> events;
  };

  // What the classify loop of one expansion reads: every successor's
  // pieces, flat; a Successor per event; and the violations in event order.
  // Each worker keeps one frame and the DFS one per depth. While a DFS frame
  // recurses into a successor, the codec decodes that successor, so the
  // frame keeps its parent's capture in `parent` meanwhile
  // (NodeCodec::swap_parent) and materializes its later successors against
  // it once the recursion returns.
  struct Frame {
    NodeCodec::Parent parent;
    std::vector<typesys::Value> pieces;
    std::vector<Successor> successors;
    std::vector<sim::PropertyViolation> violations;
  };

  // Encodes `root`, the root node, with `codec` into `pieces`, counting the
  // encode into `tally`. With `interned`, also interns it into store_ there,
  // counting the record.
  NodeCodec::Encoded encode_root(NodeCodec& codec, std::vector<typesys::Value>& pieces,
                                 const Node& root, Tally& tally,
                                 NodeStore::Intern* interned = nullptr);

  // Expands the interned `record` with the traversal's scratch `s` into
  // frame `f`: decode into the scratch node, orbit mask, enumerate; then the
  // build loop, which builds every event's successor (restore, apply, encode
  // the pieces) and starts the load of its index slot; then the classify
  // loop, which counts each transition and runs the hooks in event order.
  // Each counted transition is classified as exactly one of visited /
  // duplicates / violation_edges. The traversals differ only in the hooks,
  // resolved at compile time:
  //   stop()                      — before each event is counted; true stops;
  //   violating(event, broken)    — a violating edge; true stops;
  //   intern(fingerprint, length, write)
  //                               — interns the successor; write(out) writes
  //                                 its record and runs only if it is new;
  //   fresh(event, interned)      — a state interned first (counted visited);
  //                                 false stops.
  // Only the build loop runs ahead of a stop; it counts nothing. Returns
  // false when a hook stopped it.
  template <typename Stop, typename Violating, typename Intern, typename Fresh>
  bool expand(Scratch& s, Frame& f, const typesys::Value* record, std::uint32_t length,
              Tally& tally, Stop&& stop, Violating&& violating, Intern&& intern, Fresh&& fresh);

  // --- depth-first traversal -------------------------------------------------
  std::optional<sim::Violation> dfs(const typesys::Value* record, std::uint32_t length);

  // --- worker loop -------------------------------------------------------------
  //
  // Pending count: `pending` counts the items not yet expanded whole —
  // queued, popped, or collected as successors. A worker settles it once per
  // popped batch, at the hand-over: successors gained minus items finished,
  // in one RMW before the one push_batch, so it never reads 0 while an item
  // exists.
  //
  // Cooperative stop: request_stop records the first reason (CAS,
  // first-writer-wins) and flips stop_. Workers observe stop_ after each
  // item, hand their successors and the rest of the popped batch back to
  // the frontier (still pending-counted, so the checkpoint taken after the
  // join sees every outstanding item) and exit; a worker stopped
  // mid-expansion hands back the partially-expanded item without releasing
  // its pending slot — re-expansion after a resume only produces duplicate
  // interns, so visited counts stay exact. An allocation failure unwinds to
  // the same hand-over. Workers may therefore exit with pending > 0; every
  // exit path is "frontier drained" (pending == 0), "stop observed" or
  // "yield observed".
  //
  // Consistent cut: a checkpoint is gathered only after every worker joined,
  // when the frontier holds all pending items and the store is quiescent.
  // For a periodic checkpoint the coordinator sets yield_; workers check it
  // only between frontier items (never inside an expansion, so no item is
  // expanded twice and `transitions` stays exact), hand their batches back
  // and exit. The coordinator joins them, gathers, restarts them on the
  // same frontier, store, arenas and per-slot tallies, and writes the file
  // on a thread of its own while they run.
  //
  // Index growth: once the index is past its growth threshold, every
  // worker learns it from its own next fold of inserts
  // (NodeStore::Intern::grow_due, within kFoldInserts of its interns) and
  // sets yield_ itself, so a descheduled worker delays no other. After the
  // join the coordinator grows the index (NodeStore::reserve) and restarts
  // the workers; a yield for growth alone gathers no checkpoint. Since
  // workers look at yield_ only between items, each may intern the inserts
  // it holds unfolded, those up to its reporting fold and the rest of its
  // item (at most 2n successors): explore() keeps that much headroom above
  // the threshold for every worker before they start. One worker has its
  // store to itself, which then grows inline instead.
  std::optional<sim::Violation> explore();
  void request_stop(sim::StopReason reason);
  void worker_exit(int id);

  // One watchdog scan over the heartbeats (the coordinator calls it once per
  // sentinel interval): true, with a per-worker dump, when a live worker's
  // heartbeat stood still for watchdog_stall_intervals scans in a row.
  struct Watch {
    std::vector<std::uint64_t> last_beats;
    std::vector<int> stalled;
  };
  bool stalled(Watch& watch, std::string& dump) const;

  // `flushed` is the slot's last obs flush; it outlives a restart, so the
  // registry's counters keep equalling the stats.
  void worker(int id, CompactFrontier& frontier, PathArena& arena,
              std::atomic<std::uint64_t>& pending, Tally& local, Tally& flushed);

  void offer_violation(std::vector<Event> path, sim::PropertyViolation broken);
  void record_truncation(const PathLink* tail, const Event& event);

  sim::Memory initial_memory_;
  std::vector<sim::Process> initial_processes_;
  sim::ExplorerConfig config_;
  int num_threads_ = 0;

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

  // Depth-first state: the scratch every depth shares, and a frame per
  // depth (a deque, so deeper frames are added while shallower ones
  // classify). Parent records are read in place from the store arena, so a
  // frame holds a pointer, not a copy.
  std::optional<Scratch> scratch_;
  std::deque<Frame> frames_;
  std::vector<Event> path_;
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

  // Worker-loop state. visited_count_ is bumped per new state; stop_ is
  // loaded before every event and yield_ after every frontier item, and
  // both are written rarely, so the counter gets a cache line and the flags
  // share another. The per-state bump stays on purpose (~3% of worker
  // cycles on Sn(5) n=5): batched like `pending`, it would let `visited`
  // overshoot max_visited by a batch per worker instead of one state.
  alignas(64) std::atomic<std::uint64_t> visited_count_{0};
  alignas(64) std::atomic<bool> stop_{false};
  std::atomic<bool> yield_{false};      // a periodic checkpoint or a growth is due
  std::atomic<bool> truncated_{false};  // a truncation path was recorded
  std::atomic<bool> work_lost_{false};  // a worker could not hand its items back

  // First stop reason wins (holds sim::StopReason as int; 0 = kNone).
  std::atomic<int> stop_reason_{0};
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t resumed_checkpoints_ = 0;

  // Per-worker progress heartbeats, bumped once per frontier item; the
  // coordinator's watchdog samples them per sentinel interval.
  // kHeartbeatExited marks a worker that returned (never a stall).
  struct alignas(64) Heartbeat {
    std::atomic<std::uint64_t> beats{0};
  };
  static constexpr std::uint64_t kHeartbeatExited = ~std::uint64_t{0};
  std::unique_ptr<Heartbeat[]> heartbeats_;

  // Workers still running; the last one to exit wakes the coordinator.
  std::mutex exit_mu_;
  std::condition_variable exit_cv_;
  int running_ = 0;  // guarded by exit_mu_

  std::mutex violation_mu_;
  bool has_violation_ = false;
  std::vector<Event> best_path_;
  sim::PropertyViolation best_violation_;  // typed property + description
  std::vector<Event> truncation_path_;     // guarded by violation_mu_
  std::string watchdog_dump_;              // guarded by violation_mu_
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_PARALLEL_EXPLORER_HPP
