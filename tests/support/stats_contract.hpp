// The registry == report contract, shared by the engine and obs tests: every
// public counter an exhaustive run flushes equals the field of the reported
// ExplorerStats it stands for. The pairs below are written out by hand rather
// than read from engine::kTallyFields, so a table entry that routes a metric to
// the wrong Tally field fails here instead of moving both sides together.
#ifndef RCONS_TESTS_SUPPORT_STATS_CONTRACT_HPP
#define RCONS_TESTS_SUPPORT_STATS_CONTRACT_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "engine/obs_cells.hpp"
#include "obs/metrics.hpp"

namespace rcons::test {

inline void expect_registry_matches_stats(const obs::MetricsSnapshot& metrics,
                                          const engine::ExplorerStats& stats,
                                          const std::string& label = "") {
  const std::pair<const char*, std::uint64_t> pairs[] = {
      {"engine.visited_states", stats.visited},
      {"engine.transitions", stats.transitions},
      {"engine.decisions", stats.decisions},
      {"engine.terminal_states", stats.terminal_states},
      {"engine.orbit_skipped", stats.orbit_skipped},
      {"engine.duplicates", stats.duplicates},
      {"engine.violation_edges", stats.violation_edges},
      {"store.encodes", stats.encodes},
      {"store.canonical_hits", stats.canonical_hits},
      {"store.nodes", stats.store_nodes},
      {"store.value_bytes", stats.store_bytes},
      {"engine.frontier_batches", stats.batches},
      {"engine.frontier_batched_items", stats.batched_items},
      {"engine.cas_retries", stats.cas_retries},
      {"store.rehashes", stats.rehashes},
  };
  for (const auto& [name, value] : pairs) {
    const obs::MetricSample* sample = obs::find_sample(metrics, name);
    ASSERT_NE(sample, nullptr) << label << ": missing " << name;
    EXPECT_EQ(sample->value, value) << label << ": " << name;
  }
  // Every counter the table flushes is one of the pairs above (store.rehashes
  // is the one pair outside the table: the run publishes it once, at the end).
  for (const engine::TallyField& field : engine::kTallyFields) {
    if (field.metric == nullptr) continue;
    bool listed = false;
    for (const auto& pair : pairs) listed = listed || std::string(pair.first) == field.metric;
    EXPECT_TRUE(listed) << label << ": " << field.metric << " has no pinned stats field";
  }
}

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_STATS_CONTRACT_HPP
