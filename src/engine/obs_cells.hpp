// The one counter record of the exhaustive engine — what each traversal
// counts (Tally) and what a run reports (ExplorerStats) — and the resolved
// metric handles of the engine taxonomy (obs/session.hpp) it flushes into.
//
// Handles are resolved once per run (the only locking moment); after that
// every update is a relaxed atomic on a lane-private cell. The traversals
// count in plain Tally locals and call flush() at batch boundaries (the
// worker loop) or every 1024 transitions (the depth-first traversal), which
// adds the growth since the previous flush — so the per-state hot path is
// untouched and a null registry (inactive cells) costs one predicted branch
// per batch.
//
// kTallyFields names the registry counter of every additive field, so the
// metric totals equal the reported stats field for field
// (engine.visited_states == stats.visited, and so on); the obs tests pin
// that equality across all four check strategies.
#ifndef RCONS_ENGINE_OBS_CELLS_HPP
#define RCONS_ENGINE_OBS_CELLS_HPP

#include <array>
#include <cstdint>
#include <iterator>

#include "engine/cas_table.hpp"
#include "obs/metrics.hpp"
#include "sim/explorer_config.hpp"

namespace rcons::engine {

// Everything one traversal counts. The depth-first traversal keeps one, every
// worker of the worker loop keeps its own, and a run's baseline (the root, a
// resumed checkpoint, or the depth-first run kAuto escalates from) is one
// more. store_nodes/store_bytes count the records this traversal interned.
// The lock-free table work (probe lengths, lost claim CASes, migration
// stripes helped) is the CasTable::OpStats base, accumulated caller-side so
// the tables never bounce a shared stats cache line between workers.
//
// Every transition is classified exactly once:
//   transitions == visited + duplicates + violation_edges + orbit_skipped,
// where orbit_skipped counts the per-process events dropped because their
// process was a non-representative member of a stabilizer orbit (symmetry
// reduction only; see engine::Canonicalizer::orbit_mask).
struct Tally : CasTable::OpStats {
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t orbit_skipped = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t violation_edges = 0;
  std::uint64_t encodes = 0;
  std::uint64_t canonical_hits = 0;  // encodings the canonicalizer permuted
  std::uint64_t store_nodes = 0;
  std::uint64_t store_bytes = 0;     // arena payload bytes of those records
  std::uint64_t batches = 0;         // successor batches submitted to the frontier
  std::uint64_t batched_items = 0;   // items across those batches
  std::uint64_t cache_probes = 0;    // per-worker recently-inserted cache
  std::uint64_t cache_hits = 0;

  // The transitions the classification above accounts for.
  std::uint64_t classified() const {
    return visited + duplicates + violation_edges + orbit_skipped;
  }

  Tally& operator+=(const Tally& other);
};

// Every additive Tally field, with the registry counter it flushes into
// (null: reported in the stats only). max_probe is the one field that merges
// by max instead.
struct TallyField {
  const char* metric;
  std::uint64_t Tally::*field;
};
inline constexpr TallyField kTallyFields[] = {
    {"engine.visited_states", &Tally::visited},
    {"engine.transitions", &Tally::transitions},
    {"engine.decisions", &Tally::decisions},
    {"engine.terminal_states", &Tally::terminal_states},
    {"engine.orbit_skipped", &Tally::orbit_skipped},
    {"engine.duplicates", &Tally::duplicates},
    {"engine.violation_edges", &Tally::violation_edges},
    {"store.encodes", &Tally::encodes},
    {"store.canonical_hits", &Tally::canonical_hits},
    {"store.nodes", &Tally::store_nodes},
    {"store.value_bytes", &Tally::store_bytes},
    {"engine.frontier_batches", &Tally::batches},
    {"engine.frontier_batched_items", &Tally::batched_items},
    {"engine.dedup_cache_probes", &Tally::cache_probes},
    {"engine.dedup_cache_hits", &Tally::cache_hits},
    {"engine.cas_retries", &Tally::cas_retries},
    {"engine.migration_stripes", &Tally::migration_stripes},
    {nullptr, &Tally::probe_total},
    {nullptr, &Tally::probe_ops},
};

inline Tally& Tally::operator+=(const Tally& other) {
  for (const TallyField& f : kTallyFields) this->*f.field += other.*f.field;
  if (other.max_probe > max_probe) max_probe = other.max_probe;
  return *this;
}

// What a run reports (ParallelExplorer::stats(), check::CheckReport::stats,
// a checkpoint): the sum of its tallies plus what only the run knows.
//
// `visited`, `transitions` and `terminal_states` do not depend on traversal
// order: every driver and thread count reports the same figures for a
// complete run. With a symmetry declaration, `decisions` and `orbit_skipped`
// do. The sidecar step counts lie outside the fingerprint, so the concrete
// state that first reaches an orbit fixes them, and with them which sibling
// events the orbit mask skips (a skipped event counts no decision). Measured
// on Sn(3) n=3 c=2 with reduction (decisions/orbit_skipped): 1,541/873 under
// kSequentialDFS, and 1,540/841 and 1,545/836 under kParallelBFS at 1 and 4
// threads.
struct ExplorerStats : Tally {
  // Why the run stopped early; kNone when the verdict is exhaustive.
  sim::StopReason stop_reason = sim::StopReason::kNone;
  // Durable checkpoints written (0 when checkpointing is off or every write
  // was faulted away), including those of the runs a resume continues.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t rehashes = 0;  // growth epochs of the store's index

  bool truncated() const { return stop_reason != sim::StopReason::kNone; }
};

struct ObsCells {
  bool active = false;

  // One cell per kTallyFields entry (null where the entry names none).
  std::array<obs::Counter*, std::size(kTallyFields)> tally{};
  obs::Counter* truncations = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* stolen_items = nullptr;
  obs::Counter* store_rehashes = nullptr;

  obs::Gauge* frontier_pending = nullptr;
  obs::Gauge* visited_cap = nullptr;
  obs::Gauge* num_threads = nullptr;

  obs::Histogram* batch_size = nullptr;

  static ObsCells resolve(obs::MetricsRegistry* registry) {
    ObsCells cells;
    if (registry == nullptr) return cells;
    cells.active = true;
    for (std::size_t i = 0; i < cells.tally.size(); ++i) {
      if (kTallyFields[i].metric != nullptr) {
        cells.tally[i] = &registry->counter(kTallyFields[i].metric);
      }
    }
    cells.truncations = &registry->counter("engine.truncations");
    cells.steals = &registry->counter("engine.steals");
    cells.stolen_items = &registry->counter("engine.stolen_items");
    cells.store_rehashes = &registry->counter("store.rehashes");
    cells.frontier_pending = &registry->gauge("engine.frontier_pending");
    cells.visited_cap = &registry->gauge("engine.visited_cap");
    cells.num_threads = &registry->gauge("engine.num_threads");
    cells.batch_size = &registry->histogram("engine.batch_size");
    return cells;
  }

  // Adds what `now` grew since `flushed` into `lane`'s cells, then records
  // `now` as flushed — so the registry totals equal the sums of the tallies
  // at every boundary.
  void flush(std::size_t lane, const Tally& now, Tally& flushed) const {
    if (!active) return;
    for (std::size_t i = 0; i < tally.size(); ++i) {
      const std::uint64_t to = now.*kTallyFields[i].field;
      const std::uint64_t from = flushed.*kTallyFields[i].field;
      if (tally[i] != nullptr && to != from) tally[i]->add(lane, to - from);
    }
    flushed = now;
  }
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_OBS_CELLS_HPP
