// The one definition of an event: node-expansion core shared by the two
// rcons-lint: hot-path
// traversals of `engine::ParallelExplorer` (the depth-first run_dfs and the
// worker loop), by scripted replay (sim/replay.hpp) and by the random runner
// (sim/random_runner.hpp).
//
// A `Node` is one deduplicatable global state: shared memory, every process's
// local step machine, the per-process decided/steps-in-run bookkeeping, the
// crash budget spent, and the output constraints of the configured
// `sim::PropertySet` (the sorted distinct-output set for agreement / k-set
// agreement, plus the per-process stability memory when at-most-once decide
// is on). Expansion enumerates the applicable events (process steps, then
// crash placements, in a fixed deterministic order), applies them, and
// evaluates the property set on the way — inline through the shared helpers
// in sim/properties.hpp, with no virtual dispatch or allocation on the hot
// path.
//
// Keeping this logic in one place is what makes every backend execute the
// same model: the two traversals explore the same deduplicated graph (they
// differ only in order), and an event is legal in a replayed or random
// schedule iff enumerate_events() produces it at that node.
// The test-only reference explorer (tests/support/reference_explorer.hpp)
// uses these same step semantics over plain node clones.
#ifndef RCONS_ENGINE_EXPAND_HPP
#define RCONS_ENGINE_EXPAND_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/properties.hpp"
#include "sim/schedule.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

struct Node {
  sim::Memory memory;
  std::vector<sim::Process> processes;
  std::vector<std::uint8_t> done;
  std::vector<std::int64_t> steps_in_run;
  int crashes_used = 0;

  // Distinct decided values observed so far, sorted ascending — the
  // (k-set) agreement constraint. Bounded by PropertySet::agreement_k()
  // (empty and untouched when no agreement property is configured). Part of
  // the deduplicated state: two global states with different output histories
  // must not merge, because their future obligations differ.
  std::vector<typesys::Value> decisions;

  // kAtMostOnceDecide stability memory: last_output[p] (valid when
  // ever_output[p]) is what p decided in an earlier run. Sized to the process
  // count by make_root iff the property is on (empty otherwise, so the
  // encoding — and the state space — is unchanged for sets without it).
  // Crash events deliberately do not clear these: they remember outputs
  // *across* runs.
  std::vector<std::uint8_t> ever_output;
  std::vector<typesys::Value> last_output;

  bool has_decision() const { return !decisions.empty(); }
};

// Search events are schedule events: a path through the execution graph IS a
// replayable schedule, which is how explorer-found violations round-trip
// through sim::replay without conversion.
using Event = sim::ScheduleEvent;

// The root node for an exploration: pristine memory and processes, nothing
// decided, no crashes spent. `properties` sizes the at-most-once tracking
// vectors (the default classic trio leaves them empty).
Node make_root(sim::Memory initial, std::vector<sim::Process> processes,
               const sim::PropertySet& properties = {});

// Enumerates the events applicable at `node`, in the canonical order the
// depth-first traversal uses: step(p0) < step(p1) < ... < crash moves. This
// is the legality rule of the model: undecided processes step; while crash
// budget remains, the crash model's kind of crash (kCrash under independent,
// kCrashAll under simultaneous) is enabled. Crash placements that only burn
// budget without changing reachability (crashing a process that has not
// taken a step in its current run, or an all-crash when nobody has
// progressed) are pruned here, identically for every backend.
//
// With an `orbit_skip` mask it additionally drops per-process events whose
// process is marked there (a non-representative member of a same-class
// orbit, see NodeCodec::orbit_skip_mask): the representative's successor
// canonicalizes identically, so the sibling edge can only ever be a
// duplicate. Each dropped event bumps `*orbit_skipped`; callers credit the
// same amount to `transitions` so the exactness invariant becomes
// transitions == visited + duplicates + violation_edges + orbit_skipped.
// kCrashAll is never skipped (it is not a per-process event).
void enumerate_events(const Node& node, const sim::ExplorerConfig& config,
                      std::vector<Event>& out,
                      const std::vector<std::uint8_t>* orbit_skip = nullptr,
                      std::uint64_t* orbit_skipped = nullptr);

// True when every process has decided (no step moves exist).
bool is_terminal(const Node& node);

// Applies `event` to `node` in place. For step events this performs one
// shared-memory access and evaluates config.properties (validity, agreement
// or k-set agreement, at-most-once decide, and the per-run step bound); a
// broken property is reported as a typed violation (the caller owns trace
// formatting). Crash events discard the victims' local state. A non-null
// `step_result` receives a step event's result (whether and what the process
// decided), also when the step breaks a property; replay and the random
// runner record outputs from it, the explorers pass nothing. `event` must be
// one enumerate_events() produces at `node`.
std::optional<sim::PropertyViolation> apply_event(Node& node, const Event& event,
                                                  const sim::ExplorerConfig& config,
                                                  sim::StepResult* step_result = nullptr);

// The canonical encoding is assembled from these two helpers, shared by
// encode_node() below and the NodeCodec (engine/node_store.hpp), so the two
// cannot drift: any future property that adds node state extends the layout
// in exactly one place.

// Record header: crash budget spent, the sorted distinct-output constraint,
// then the shared memory.
inline void encode_node_header(const Node& node, std::vector<typesys::Value>& out) {
  out.push_back(node.crashes_used);
  out.push_back(static_cast<typesys::Value>(node.decisions.size()));
  for (const typesys::Value decision : node.decisions) out.push_back(decision);
  node.memory.encode(out);
}

// One per-process block: done bit, the at-most-once stability pair when the
// node tracks it, then the program's local state.
inline void encode_process_block(const Node& node, std::size_t i,
                                 std::vector<typesys::Value>& out) {
  out.push_back(node.done[i] != 0 ? 1 : 0);
  if (!node.ever_output.empty()) {
    out.push_back(node.ever_output[i] != 0 ? 1 : 0);
    out.push_back(node.ever_output[i] != 0 ? node.last_output[i] : 0);
  }
  node.processes[i].encode(out);
}

// Canonical encoding of the node: header + every process block, the prefix
// of a NodeCodec record that its fingerprint covers. Written into `scratch`
// (cleared first).
void encode_node(const Node& node, std::vector<typesys::Value>& scratch);

// Streaming form of the node fingerprint: both 64-bit hash lanes absorb
// values as they are appended to the encoding (the NodeCodec feeds each
// record segment right after writing it, while it is still cache-hot), and
// the encoded length is folded in only at finish(). One pass produces
// record + hash with no separate fingerprint sweep.
struct FpStream {
  std::uint64_t lo = 0x2545f4914f6cdd1dULL;
  std::uint64_t hi = 0x6a09e667f3bcc909ULL;

  void absorb(const typesys::Value* data, std::size_t count) {
    // Two independent multiply-accumulate lanes: polynomial hashes with
    // distinct odd multipliers and distinct injection ops (add vs xor). One
    // add/xor + one multiply per lane per value, and the lanes carry no
    // dependency on each other, so both chains pipeline; all avalanche is
    // deferred to finish(). A cross-lane collision needs one value
    // difference annihilated by powers of BOTH multipliers mod 2^64.
    std::uint64_t l = lo;
    std::uint64_t h = hi;
    for (std::size_t i = 0; i < count; ++i) {
      const auto v = static_cast<std::uint64_t>(data[i]);
      l = (l + v) * 0xff51afd7ed558ccdULL;
      h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    }
    lo = l;
    hi = h;
  }

  util::U128 finish(std::size_t size) const {
    // Cross the lanes while folding in the encoded length, then avalanche
    // each output word so every absorbed value diffuses into both halves.
    const auto s = static_cast<std::uint64_t>(size);
    return util::U128{util::mix64(lo ^ (hi >> 29) ^ s),
                      util::mix64(hi + (lo << 31) + s * 0x9e3779b97f4a7c15ULL)};
  }
};

// Fingerprint of an already-encoded canonical prefix (== FpStream absorbing
// the whole prefix). The NodeCodec (engine/node_store.hpp) uses it for
// records the canonicalizer permuted and as its DCHECK reference sweep.
util::U128 fingerprint_values(const typesys::Value* data, std::size_t size);

// Deterministic total order on events / event paths, matching the enumeration
// order above. Used for "lowest trace wins" violation selection in the
// parallel explorer.
bool event_less(const Event& a, const Event& b);
bool path_less(const std::vector<Event>& a, const std::vector<Event>& b);

// Immutable backlink chain recording how a node was first reached. Work items
// share their ancestors' links, so extending a path is O(1) instead of
// copying the root-to-node event vector per child; the full path is only
// materialized (root-first) when a violation needs a trace. Links are plain
// pointers into per-worker append-only arenas (engine/path_arena.hpp) that
// outlive the workers and are freed wholesale — no per-link refcounting.
struct PathLink {
  Event event;
  const PathLink* parent = nullptr;
};
std::vector<Event> materialize_path(const PathLink* tail);

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_EXPAND_HPP
