// Exhaustive model checking of step-machine algorithms under crashes.
//
// The explorer enumerates every interleaving of process steps and every
// placement of up to `crash_budget` crash events (independent per-process
// crashes, or simultaneous all-process crashes — the paper's two failure
// models), checking:
//
//   * Agreement  — all outputs ever produced (across processes and across
//     multiple runs of the same process) are equal.
//   * Validity   — every output is in the configured input set.
//   * Recoverable wait-freedom — no run of any process exceeds the configured
//     per-run step bound without crashing or deciding.
//
// Exploration deduplicates global states (shared memory + every process's
// local state + crash budget + decision constraint), which keeps the search
// tractable; dedup keys are 128-bit hashes of the canonical encoding, making
// a pruning collision astronomically unlikely (documented trade-off).
//
// Each state's encoding is interned once in an engine::NodeStore (which is
// also the visited set), and the traversal re-decodes one reusable scratch
// node per successor instead of cloning it. A symmetry declaration
// (ExplorerConfig::symmetry_classes) makes the fingerprints canonical — see
// engine/node_store.hpp.
//
// This is the single-threaded traversal; node expansion, property checking,
// and fingerprinting are shared with the multi-threaded
// `engine::ParallelExplorer` through `engine/expand.hpp`.
#ifndef RCONS_SIM_EXPLORER_HPP
#define RCONS_SIM_EXPLORER_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/expand.hpp"
#include "engine/handoff.hpp"
#include "engine/node_store.hpp"
#include "engine/obs_cells.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/hash.hpp"

namespace rcons::sim {

class Explorer {
 public:
  Explorer(Memory initial, std::vector<Process> processes, ExplorerConfig config);

  // Explores the full (deduplicated) execution tree. Returns the first
  // violation found, or nullopt if every execution satisfies the properties.
  //
  // With a `handoff` (the kAuto probe; engine/handoff.hpp), a stop on the
  // visited cap finishes the DFS stack and hands the store, the deferred
  // states and any violation candidate over through `handoff` for
  // engine::ParallelExplorer to continue. Any other outcome leaves
  // handoff->store null.
  std::optional<Violation> run(engine::ProbeHandoff* handoff = nullptr);

  const ExplorerStats& stats() const { return stats_; }

 private:
  // Resource sentinels, polled inline every kLimitPollTransitions transitions
  // (the sequential explorer has no monitor thread). Returns the typed
  // truncated verdict when a limit tripped; the hot path with no limits set
  // never touches a clock.
  std::optional<Violation> poll_limits();

  std::optional<Violation> explore();
  std::optional<Violation> dfs(const typesys::Value* record, std::size_t size);

  Memory initial_memory_;
  std::vector<Process> initial_processes_;
  ExplorerConfig config_;
  ExplorerStats stats_;
  std::vector<engine::Event> path_;
  // Per-depth event buffers, reused across siblings. A deque because deeper
  // recursion grows it while shallower frames hold references into it, and
  // deque growth at the end never invalidates existing elements.
  std::deque<std::vector<engine::Event>> events_pool_;

  // The interning store, one decoded scratch node shared by every depth
  // (restored from the parent's record between successors — see
  // NodeCodec::restore), and the codec with its canonicalizer. Parent records are read in place from the
  // store arena (stable, immutable — NodeStore::Intern), so recursion holds
  // pointers instead of per-depth record copies. Probe/CAS work accumulates
  // caller-side in table_ops_ (the lock-free table keeps no shared tallies);
  // orbit_skip_ is the per-expansion stabilizer mask, fully consumed by
  // enumerate_events before any recursion can overwrite it.
  std::unique_ptr<engine::NodeStore> store_;
  std::unique_ptr<engine::NodeCodec> codec_;
  engine::Node scratch_node_;
  std::vector<typesys::Value> encode_scratch_;
  std::vector<std::uint8_t> orbit_skip_;
  engine::CasTable::OpStats table_ops_;
  bool orbit_reduction_ = false;

  // kAuto handoff (null when run() got none). Once the visited cap trips,
  // draining_ stops recursion: the remaining events of every frame
  // still run, new states are deferred to handoff_->frontier, and violating
  // edges become candidates instead of ending the run.
  engine::ProbeHandoff* handoff_ = nullptr;
  bool draining_ = false;

  // Resource-sentinel state for poll_limits(): the absolute deadline and RSS
  // cap resolved from the budget at run() (0 = unlimited), and the next
  // transition count at which to sample the clock.
  static constexpr std::uint64_t kLimitPollTransitions = 1024;
  std::int64_t deadline_ms_ = 0;
  std::uint64_t rss_cap_bytes_ = 0;
  std::uint64_t next_limit_poll_ = 0;

  // Observability (engine/obs_cells.hpp): the sequential traversal publishes
  // the same engine.*/store.* taxonomy the parallel workers do, all on lane 0.
  // Totals mostly live in stats_ already; the few facts stats_ only learns at
  // the end (duplicates, violating edges, live store size) get their own
  // running tallies so flush_obs() can stream deltas every
  // kObsFlushTransitions transitions plus exactly once at the end of run().
  void flush_obs();
  static constexpr std::uint64_t kObsFlushTransitions = 1024;
  engine::ObsCells obs_cells_;
  engine::ObsDeltas obs_flushed_;
  std::uint64_t obs_duplicates_ = 0;
  std::uint64_t obs_violation_edges_ = 0;
  std::uint64_t obs_store_nodes_ = 0;
  std::uint64_t obs_store_bytes_ = 0;
  std::uint64_t obs_last_flush_transitions_ = 0;
};

}  // namespace rcons::sim

#endif  // RCONS_SIM_EXPLORER_HPP
