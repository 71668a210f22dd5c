// rcons-lint: hot-path
#include "engine/expand.hpp"

#include "util/assert.hpp"

namespace rcons::engine {

using typesys::Value;

Node make_root(sim::Memory initial, std::vector<sim::Process> processes,
               const sim::PropertySet& properties) {
  RCONS_ASSERT(!processes.empty());
  Node root;
  root.memory = std::move(initial);
  root.processes = std::move(processes);
  root.done.assign(root.processes.size(), 0);
  root.steps_in_run.assign(root.processes.size(), 0);
  if (properties.at_most_once()) {
    root.ever_output.assign(root.processes.size(), 0);
    root.last_output.assign(root.processes.size(), 0);
  }
  return root;
}

void enumerate_events(const Node& node, const sim::ExplorerConfig& config,
                      std::vector<Event>& out,
                      const std::vector<std::uint8_t>* orbit_skip,
                      std::uint64_t* orbit_skipped) {
  out.clear();
  const int n = static_cast<int>(node.processes.size());
  const auto skipped = [&](int i) {
    if (orbit_skip == nullptr || (*orbit_skip)[static_cast<std::size_t>(i)] == 0) {
      return false;
    }
    *orbit_skipped += 1;
    return true;
  };

  // Step moves.
  for (int i = 0; i < n; ++i) {
    if (node.done[static_cast<std::size_t>(i)] != 0) continue;
    if (skipped(i)) continue;
    out.push_back(Event{Event::Kind::kStep, i});
  }

  // Crash moves.
  if (node.crashes_used >= config.crash_budget) return;
  if (config.crash_model == sim::CrashModel::kIndependent) {
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      // A decided process may crash too, as in the paper's model.
      const bool is_done = node.done[idx] != 0;
      // Crashing a process that has not taken a step in its current run
      // only burns budget; the resulting state is strictly weaker.
      if (!is_done && node.steps_in_run[idx] == 0) continue;
      // Orbit members have identical blocks *and* sidecars, so a skipped
      // sibling's crash is the representative's crash up to relabeling.
      if (skipped(i)) continue;
      out.push_back(Event{Event::Kind::kCrash, i});
    }
  } else {
    bool useful = false;
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      useful = useful || node.done[idx] != 0 || node.steps_in_run[idx] > 0;
    }
    if (useful) out.push_back(Event{Event::Kind::kCrashAll, -1});
  }
}

bool is_terminal(const Node& node) {
  for (const std::uint8_t d : node.done) {
    if (d == 0) return false;
  }
  return true;
}

namespace {

std::optional<sim::PropertyViolation> apply_step(Node& node, int process,
                                                 const sim::ExplorerConfig& config,
                                                 sim::StepResult* step_result) {
  const auto idx = static_cast<std::size_t>(process);
  const sim::StepResult result = node.processes[idx].step(node.memory);
  if (step_result != nullptr) *step_result = result;
  node.steps_in_run[idx] += 1;
  if (auto violation = sim::check_wait_freedom(config.properties, process,
                                               node.steps_in_run[idx],
                                               config.max_steps_per_run)) {
    return violation;
  }
  if (result.kind == sim::StepResult::Kind::kDecided) {
    if (auto violation =
            sim::check_output(config.properties, process, result.decision,
                              node.decisions, node.ever_output, node.last_output)) {
      return violation;
    }
    node.done[idx] = 1;
    node.steps_in_run[idx] = 0;
    // Canonicalize the local state of decided processes so equivalent global
    // states deduplicate regardless of how the decision was reached.
    node.processes[idx].reset();
  }
  return std::nullopt;
}

void crash_process(Node& node, int process) {
  const auto idx = static_cast<std::size_t>(process);
  node.done[idx] = 0;
  node.steps_in_run[idx] = 0;
  node.processes[idx].reset();
}

}  // namespace

std::optional<sim::PropertyViolation> apply_event(Node& node, const Event& event,
                                                  const sim::ExplorerConfig& config,
                                                  sim::StepResult* step_result) {
  switch (event.kind) {
    case Event::Kind::kStep:
      return apply_step(node, event.process, config, step_result);
    case Event::Kind::kCrash:
      node.crashes_used += 1;
      crash_process(node, event.process);
      return std::nullopt;
    case Event::Kind::kCrashAll:
      node.crashes_used += 1;
      for (int i = 0; i < static_cast<int>(node.processes.size()); ++i) {
        crash_process(node, i);
      }
      return std::nullopt;
  }
  return std::nullopt;
}

void encode_node(const Node& node, std::vector<Value>& scratch) {
  scratch.clear();
  encode_node_header(node, scratch);
  for (std::size_t i = 0; i < node.processes.size(); ++i) {
    encode_process_block(node, i, scratch);
  }
}

util::U128 fingerprint_values(const Value* data, std::size_t size) {
  FpStream fp;
  fp.absorb(segment_digest(data, size));
  return fp.finish();
}

bool event_less(const Event& a, const Event& b) {
  if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  return a.process < b.process;
}

bool path_less(const std::vector<Event>& a, const std::vector<Event>& b) {
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (event_less(a[i], b[i])) return true;
    if (event_less(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

std::vector<Event> materialize_path(const PathLink* tail) {
  std::vector<Event> path;
  for (const PathLink* link = tail; link != nullptr; link = link->parent) {
    path.push_back(link->event);
  }
  for (std::size_t i = 0, j = path.size(); i + 1 < j; ++i, --j) {
    std::swap(path[i], path[j - 1]);
  }
  return path;
}

}  // namespace rcons::engine
