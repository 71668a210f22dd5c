// What a bounded sequential probe leaves behind for the parallel engine when
// it stops on its visited cap (check::Strategy::kAuto).
//
// At the cap the probe (sim::Explorer::run with a handoff) stops recursing
// but finishes the remaining events of every frame on its DFS stack: each
// newly interned state is deferred here with the full event path from the
// root that reached it, and each violating edge becomes a candidate. Every
// edge the probe saw is then counted exactly once, every interned state is
// either expanded or deferred, and engine::ParallelExplorer::run(ProbeHandoff)
// carries on from exactly this cut — the explored states are never explored
// again. The probe keeps its cheap single-shard store until then (most
// probes finish and never hand off); the engine re-shards the index for its
// workers when it takes the store over (NodeStore::reshard).
#ifndef RCONS_ENGINE_HANDOFF_HPP
#define RCONS_ENGINE_HANDOFF_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/expand.hpp"
#include "engine/node_store.hpp"
#include "sim/explorer_config.hpp"
#include "sim/properties.hpp"

namespace rcons::engine {

struct ProbeHandoff {
  // Every state the probe interned, root included. Non-null only when the
  // probe stopped on its visited cap — i.e. when there is something to hand
  // off.
  std::unique_ptr<NodeStore> store;

  // States interned after the cap but never expanded, in DFS order. The
  // first one is the state that tripped the cap.
  struct Item {
    const typesys::Value* record = nullptr;  // view into `store`
    std::uint32_t length = 0;
    std::vector<Event> path;  // from the root
  };
  std::vector<Item> frontier;

  // The lowest-trace violating edge met while finishing the stack, if any.
  bool has_violation = false;
  std::vector<Event> violation_path;
  sim::PropertyViolation violation;

  // The probe's totals; the engine's counters start from them.
  sim::ExplorerStats stats;
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_HANDOFF_HPP
