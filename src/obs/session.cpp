#include "obs/session.hpp"

#include <iostream>
#include <utility>

namespace rcons::obs {

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (!options_.trace_out.empty()) {
    tracer_ = std::make_unique<Tracer>();
  }
  const bool sampling = options_.progress || !options_.metrics_out.empty();
  if (sampling) {
    SamplerOptions sampler_options;
    sampler_options.interval_ms = options_.interval_ms;
    if (options_.progress) sampler_options.heartbeat_out = &std::cerr;
    if (!options_.metrics_out.empty()) {
      metrics_file_.open(options_.metrics_out);
      if (metrics_file_.is_open()) sampler_options.metrics_out = &metrics_file_;
    }
    sampler_ = std::make_unique<Sampler>(registry_, sampler_options);
    sampler_->start();
  }
}

Session::~Session() { finish(); }

Hooks Session::hooks() {
  Hooks hooks;
  if (options_.any_enabled()) hooks.metrics = &registry_;
  hooks.tracer = tracer_.get();
  return hooks;
}

bool Session::finish(std::string* error) {
  if (finished_) return true;
  finished_ = true;
  if (sampler_ != nullptr) sampler_->stop();
  if (metrics_file_.is_open()) metrics_file_.close();
  if (tracer_ != nullptr) {
    std::ofstream out(options_.trace_out);
    if (!out.is_open()) {
      if (error != nullptr) *error = "cannot write trace file " + options_.trace_out;
      return false;
    }
    tracer_->write_chrome_trace(out);
    if (!out.good()) {
      if (error != nullptr) *error = "error writing trace file " + options_.trace_out;
      return false;
    }
  }
  return true;
}

const std::vector<NameDoc>& metric_names() {
  static const std::vector<NameDoc> kNames = {
      {"check.probe_visited", "states the kAuto probe expanded before escalating"},
      {"engine.batch_size", "histogram of successor batch sizes handed over per popped batch"},
      {"engine.cas_retries", "lock-free slot claims lost to a racing worker and retried"},
      {"engine.decisions", "decide transitions taken (== ExplorerStats.decisions)"},
      {"engine.duplicates", "successor states that were already visited"},
      {"engine.frontier_batched_items", "items across those batches"},
      {"engine.frontier_batches", "successor batches submitted to the frontier"},
      {"engine.frontier_pending", "gauge: items queued or mid-expansion right now"},
      {"engine.num_threads", "gauge: resolved engine worker count"},
      {"engine.orbit_skipped", "orbit-equivalent sibling events skipped by symmetry"},
      {"engine.steals", "successful frontier batch steals"},
      {"engine.stolen_items", "items moved by those steals"},
      {"engine.terminal_states", "states where every process has decided"},
      {"engine.transitions", "events applied (== ExplorerStats.transitions)"},
      {"engine.truncations", "max_visited budget exhaustions recorded"},
      {"engine.violation_edges", "violating edges found (>=1 edge per reported violation)"},
      {"engine.visited_cap", "gauge: the run's max_visited budget"},
      {"engine.visited_states", "deduplicated states inserted (== ExplorerStats.visited)"},
      {"portfolio.scenario_index", "gauge: 1-based index of the spec scenario now checking"},
      {"portfolio.scenarios_total", "gauge: scenarios in the spec runner's sweep"},
      {"random.crashes", "crashes injected across random runs"},
      {"random.runs", "seeded random executions completed or stopped"},
      {"random.steps", "process steps taken across random runs"},
      {"random.violations", "random runs that hit a property violation"},
      {"replay.outputs", "decide events observed during replay"},
      {"replay.steps", "schedule events applied during replay"},
      {"replay.violations", "replays that reproduced a property violation"},
      {"store.canonical_hits", "encodings the symmetry canonicalizer permuted"},
      {"store.encodes", "node encodings produced"},
      {"store.nodes", "unique states interned in the node store"},
      {"store.rehashes", "growths (doublings) of the store's lock-free index"},
      {"store.value_bytes", "arena payload bytes across interned records"},
  };
  return kNames;
}

const std::vector<NameDoc>& span_names() {
  static const std::vector<NameDoc> kNames = {
      {"auto_select", "instant: the kAuto probe-or-escalate decision"},
      {"check", "one check() call end-to-end"},
      {"expand_batch", "one popped batch expanded by an engine worker"},
      {"explore", "the exhaustive backend's full exploration"},
      {"minimize", "check_cli --minimize: greedy schedule minimization of a violation"},
      {"portfolio_scenario", "one spec runner scenario end-to-end (': <name>' suffixed)"},
      {"probe", "the kAuto probe: the depth-first traversal up to auto_probe_limit states"},
      {"random_run", "one seeded random execution"},
      {"replay", "scripted schedule replay"},
      {"spec_parse", "check_cli: scenario spec file parse"},
      {"steal", "a pop that came back with a victim's items (span covers the probe)"},
      {"worker", "one engine worker thread within a run"},
  };
  return kNames;
}

}  // namespace rcons::obs
