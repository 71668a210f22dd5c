// A deliberately naive exhaustive explorer: the oracle the two engine drivers
// are checked against (tests/engine/differential_test.cpp).
//
// It shares only the step semantics with the engine — make_root,
// enumerate_events, apply_event, is_terminal, and the encode_node image of a
// state — and nothing of how the engine stores, hashes, reduces or schedules
// states:
//
//   * every node is a full clone (no NodeStore, no NodeCodec, no restore);
//   * the visited set is a std::set of complete encode_node images, so no
//     fingerprint exists and no hash collision can prune a state;
//   * no symmetry reduction, no orbit masks, no threads.
//
// The traversal is sim::Explorer's: depth first, events in enumeration
// order, the first path to reach a state fixes it (including the per-run step
// counts, which lie outside the encode_node image). So on a violating system
// the first violation carries the same schedule. The counters follow
// ExplorerStats: `visited` excludes the root, `transitions` counts every
// enumerated event, `decisions` the non-violating transitions that add a
// distinct output, and `terminal_states` the expanded states in which every
// process has decided.
#ifndef RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP
#define RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "engine/expand.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"

namespace rcons::test {

struct ReferenceResult {
  std::optional<sim::Violation> violation;  // the first one met; the search stops there
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;
};

class ReferenceExplorer {
 public:
  explicit ReferenceExplorer(sim::ExplorerConfig config) : config_(std::move(config)) {}

  // Explores the whole state space from the root (no visited cap, no
  // limits). Only config's crash model and budget, crash_after_decide,
  // properties and max_steps_per_run matter; symmetry_classes is ignored.
  ReferenceResult run(sim::Memory memory, std::vector<sim::Process> processes) {
    result_ = ReferenceResult{};
    seen_.clear();
    path_.clear();
    const engine::Node root =
        engine::make_root(std::move(memory), std::move(processes), config_.properties);
    insert(root);
    dfs(root);
    return result_;
  }

 private:
  bool insert(const engine::Node& node) {
    std::vector<typesys::Value> image;
    engine::encode_node(node, image);
    return seen_.insert(std::move(image)).second;
  }

  // Returns true once a violation is recorded.
  bool dfs(const engine::Node& node) {
    std::vector<engine::Event> events;
    engine::enumerate_events(node, config_, events);
    if (engine::is_terminal(node)) result_.terminal_states += 1;
    for (const engine::Event& event : events) {
      result_.transitions += 1;
      path_.push_back(event);
      engine::Node child = node;
      if (auto broken = engine::apply_event(child, event, config_)) {
        result_.violation = sim::Violation{std::move(broken->description), broken->property,
                                           broken->param, path_};
        return true;
      }
      if (child.decisions.size() > node.decisions.size()) result_.decisions += 1;
      if (insert(child)) {
        result_.visited += 1;
        if (dfs(child)) return true;
      }
      path_.pop_back();
    }
    return false;
  }

  sim::ExplorerConfig config_;
  ReferenceResult result_;
  std::set<std::vector<typesys::Value>> seen_;
  std::vector<engine::Event> path_;
};

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP
