// Resolved metric handles for the engine taxonomy (obs/session.hpp), shared
// by the sequential and parallel explorers.
//
// Handles are resolved once per run (the only locking moment); after that
// every update is a relaxed atomic on a lane-private cell. The explorers keep
// counting in their plain per-worker locals exactly as before and call
// flush() with the *delta since the last flush* at batch boundaries — so the
// per-state hot path is untouched and a null registry (inactive cells) costs
// one predicted branch per batch.
//
// The counter names mirror sim::ExplorerStats field-for-field where a field
// exists (engine.visited_states == stats.visited, and so on); the obs tests
// pin that equality across all four check strategies.
#ifndef RCONS_ENGINE_OBS_CELLS_HPP
#define RCONS_ENGINE_OBS_CELLS_HPP

#include <cstdint>

#include "obs/metrics.hpp"

namespace rcons::engine {

// Counter deltas accumulated between flushes. Field meanings match the
// engine.* / store.* taxonomy in obs/session.cpp.
struct ObsDeltas {
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t violation_edges = 0;
  std::uint64_t encodes = 0;
  std::uint64_t canonical_hits = 0;
  std::uint64_t nodes = 0;
  std::uint64_t value_bytes = 0;
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_items = 0;
  std::uint64_t orbit_skipped = 0;
  std::uint64_t cas_retries = 0;
  std::uint64_t migration_stripes = 0;
};

struct ObsCells {
  bool active = false;

  obs::Counter* visited_states = nullptr;
  obs::Counter* transitions = nullptr;
  obs::Counter* decisions = nullptr;
  obs::Counter* terminal_states = nullptr;
  obs::Counter* duplicates = nullptr;
  obs::Counter* violation_edges = nullptr;
  obs::Counter* orbit_skipped = nullptr;
  obs::Counter* cas_retries = nullptr;
  obs::Counter* migration_stripes = nullptr;
  obs::Counter* truncations = nullptr;
  obs::Counter* dedup_cache_probes = nullptr;
  obs::Counter* dedup_cache_hits = nullptr;
  obs::Counter* frontier_batches = nullptr;
  obs::Counter* frontier_batched_items = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* stolen_items = nullptr;
  obs::Counter* store_nodes = nullptr;
  obs::Counter* store_value_bytes = nullptr;
  obs::Counter* store_encodes = nullptr;
  obs::Counter* store_canonical_hits = nullptr;
  obs::Counter* store_rehashes = nullptr;

  obs::Gauge* frontier_pending = nullptr;
  obs::Gauge* visited_cap = nullptr;
  obs::Gauge* num_threads = nullptr;

  obs::Histogram* batch_size = nullptr;

  static ObsCells resolve(obs::MetricsRegistry* registry) {
    ObsCells cells;
    if (registry == nullptr) return cells;
    cells.active = true;
    cells.visited_states = &registry->counter("engine.visited_states");
    cells.transitions = &registry->counter("engine.transitions");
    cells.decisions = &registry->counter("engine.decisions");
    cells.terminal_states = &registry->counter("engine.terminal_states");
    cells.duplicates = &registry->counter("engine.duplicates");
    cells.violation_edges = &registry->counter("engine.violation_edges");
    cells.orbit_skipped = &registry->counter("engine.orbit_skipped");
    cells.cas_retries = &registry->counter("engine.cas_retries");
    cells.migration_stripes = &registry->counter("engine.migration_stripes");
    cells.truncations = &registry->counter("engine.truncations");
    cells.dedup_cache_probes = &registry->counter("engine.dedup_cache_probes");
    cells.dedup_cache_hits = &registry->counter("engine.dedup_cache_hits");
    cells.frontier_batches = &registry->counter("engine.frontier_batches");
    cells.frontier_batched_items = &registry->counter("engine.frontier_batched_items");
    cells.steals = &registry->counter("engine.steals");
    cells.stolen_items = &registry->counter("engine.stolen_items");
    cells.store_nodes = &registry->counter("store.nodes");
    cells.store_value_bytes = &registry->counter("store.value_bytes");
    cells.store_encodes = &registry->counter("store.encodes");
    cells.store_canonical_hits = &registry->counter("store.canonical_hits");
    cells.store_rehashes = &registry->counter("store.rehashes");
    cells.frontier_pending = &registry->gauge("engine.frontier_pending");
    cells.visited_cap = &registry->gauge("engine.visited_cap");
    cells.num_threads = &registry->gauge("engine.num_threads");
    cells.batch_size = &registry->histogram("engine.batch_size");
    return cells;
  }

  // Adds the nonzero deltas into `lane`'s cells. Callers pass deltas, not
  // totals, so flushing is idempotent-per-increment and the registry totals
  // equal the sums of the per-worker locals at every boundary.
  void flush(std::size_t lane, const ObsDeltas& d) const {
    if (!active) return;
    if (d.visited != 0) visited_states->add(lane, d.visited);
    if (d.transitions != 0) transitions->add(lane, d.transitions);
    if (d.decisions != 0) decisions->add(lane, d.decisions);
    if (d.terminal_states != 0) terminal_states->add(lane, d.terminal_states);
    if (d.duplicates != 0) duplicates->add(lane, d.duplicates);
    if (d.violation_edges != 0) violation_edges->add(lane, d.violation_edges);
    if (d.encodes != 0) store_encodes->add(lane, d.encodes);
    if (d.canonical_hits != 0) store_canonical_hits->add(lane, d.canonical_hits);
    if (d.nodes != 0) store_nodes->add(lane, d.nodes);
    if (d.value_bytes != 0) store_value_bytes->add(lane, d.value_bytes);
    if (d.cache_probes != 0) dedup_cache_probes->add(lane, d.cache_probes);
    if (d.cache_hits != 0) dedup_cache_hits->add(lane, d.cache_hits);
    if (d.batches != 0) frontier_batches->add(lane, d.batches);
    if (d.batched_items != 0) frontier_batched_items->add(lane, d.batched_items);
    if (d.orbit_skipped != 0) orbit_skipped->add(lane, d.orbit_skipped);
    if (d.cas_retries != 0) cas_retries->add(lane, d.cas_retries);
    if (d.migration_stripes != 0) migration_stripes->add(lane, d.migration_stripes);
  }
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_OBS_CELLS_HPP
