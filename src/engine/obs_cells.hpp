// The counter record both traversals keep, and the resolved metric handles
// of the engine taxonomy (obs/session.hpp) it flushes into.
//
// Handles are resolved once per run (the only locking moment); after that
// every update is a relaxed atomic on a lane-private cell. The traversals
// count in plain Tally locals and call flush() at batch boundaries (the
// worker loop) or every 1024 transitions (the depth-first traversal), which
// adds the growth since the previous flush — so the per-state hot path is
// untouched and a null registry (inactive cells) costs one predicted branch
// per batch.
//
// The counter names mirror sim::ExplorerStats field-for-field where a field
// exists (engine.visited_states == stats.visited, and so on); the obs tests
// pin that equality across all four check strategies.
#ifndef RCONS_ENGINE_OBS_CELLS_HPP
#define RCONS_ENGINE_OBS_CELLS_HPP

#include <cstdint>

#include "engine/cas_table.hpp"
#include "obs/metrics.hpp"
#include "sim/explorer_config.hpp"

namespace rcons::engine {

// Everything one traversal counts. The depth-first traversal keeps one, every
// worker of the worker loop keeps its own, and a run's baseline (the root, a
// resumed checkpoint, or the depth-first run kAuto escalates from) is one
// more. Field meanings match the engine.* / store.* taxonomy in
// obs/session.cpp; store_nodes/store_bytes count the records this traversal
// interned.
struct Tally {
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t orbit_skipped = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t violation_edges = 0;
  std::uint64_t encodes = 0;
  std::uint64_t canonical_hits = 0;
  std::uint64_t store_nodes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_items = 0;
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_hits = 0;
  // Lock-free table work (probe lengths, lost claim CASes, migration stripes
  // helped), accumulated caller-side so the tables never bounce a shared
  // stats cache line between workers.
  CasTable::OpStats ops;

  Tally& operator+=(const Tally& o) {
    visited += o.visited;
    transitions += o.transitions;
    decisions += o.decisions;
    terminal_states += o.terminal_states;
    orbit_skipped += o.orbit_skipped;
    duplicates += o.duplicates;
    violation_edges += o.violation_edges;
    encodes += o.encodes;
    canonical_hits += o.canonical_hits;
    store_nodes += o.store_nodes;
    store_bytes += o.store_bytes;
    batches += o.batches;
    batched_items += o.batched_items;
    cache_probes += o.cache_probes;
    cache_hits += o.cache_hits;
    ops.probe_total += o.ops.probe_total;
    ops.probe_ops += o.ops.probe_ops;
    if (o.ops.max_probe > ops.max_probe) ops.max_probe = o.ops.max_probe;
    ops.cas_retries += o.ops.cas_retries;
    ops.migration_stripes += o.ops.migration_stripes;
    return *this;
  }

  // The ExplorerStats counters this record owns. The store's own totals
  // (nodes, value bytes, rehashes) and the stop reason come from elsewhere.
  void write_to(sim::ExplorerStats& stats) const {
    stats.visited = visited;
    stats.transitions = transitions;
    stats.decisions = decisions;
    stats.terminal_states = terminal_states;
    stats.orbit_skipped = orbit_skipped;
    stats.store.encodes = encodes;
    stats.store.canonical_hits = canonical_hits;
    stats.hot.batches = batches;
    stats.hot.batched_items = batched_items;
    stats.hot.dedup_cache_probes = cache_probes;
    stats.hot.dedup_cache_hits = cache_hits;
    stats.hot.probe_total = ops.probe_total;
    stats.hot.probe_ops = ops.probe_ops;
    stats.hot.max_probe = ops.max_probe;
    stats.hot.cas_retries = ops.cas_retries;
    stats.hot.migration_stripes = ops.migration_stripes;
  }
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

  // Adds what `now` grew since `flushed` into `lane`'s cells, then records
  // `now` as flushed — so the registry totals equal the sums of the tallies
  // at every boundary.
  void flush(std::size_t lane, const Tally& now, Tally& flushed) const {
    if (!active) return;
    auto add = [lane](obs::Counter* cell, std::uint64_t to, std::uint64_t from) {
      if (to != from) cell->add(lane, to - from);
    };
    add(visited_states, now.visited, flushed.visited);
    add(transitions, now.transitions, flushed.transitions);
    add(decisions, now.decisions, flushed.decisions);
    add(terminal_states, now.terminal_states, flushed.terminal_states);
    add(orbit_skipped, now.orbit_skipped, flushed.orbit_skipped);
    add(duplicates, now.duplicates, flushed.duplicates);
    add(violation_edges, now.violation_edges, flushed.violation_edges);
    add(store_encodes, now.encodes, flushed.encodes);
    add(store_canonical_hits, now.canonical_hits, flushed.canonical_hits);
    add(store_nodes, now.store_nodes, flushed.store_nodes);
    add(store_value_bytes, now.store_bytes, flushed.store_bytes);
    add(frontier_batches, now.batches, flushed.batches);
    add(frontier_batched_items, now.batched_items, flushed.batched_items);
    add(dedup_cache_probes, now.cache_probes, flushed.cache_probes);
    add(dedup_cache_hits, now.cache_hits, flushed.cache_hits);
    add(cas_retries, now.ops.cas_retries, flushed.ops.cas_retries);
    add(migration_stripes, now.ops.migration_stripes, flushed.ops.migration_stripes);
    flushed = now;
  }
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_OBS_CELLS_HPP
