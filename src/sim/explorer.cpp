#include "sim/explorer.hpp"

#include <new>
#include <utility>

#include "engine/sentinel.hpp"
#include "util/assert.hpp"

namespace rcons::sim {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kVisitedCap:
      return "visited-cap";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kWatchdog:
      return "watchdog";
    case StopReason::kForcedStop:
      return "forced-stop";
  }
  return "unknown";
}

Explorer::Explorer(Memory initial, std::vector<Process> processes, ExplorerConfig config)
    : initial_memory_(std::move(initial)),
      initial_processes_(std::move(processes)),
      config_(std::move(config)) {
  RCONS_ASSERT(!initial_processes_.empty());
  RCONS_ASSERT(config_.crash_budget >= 0);
  RCONS_ASSERT_MSG(config_.symmetry_classes.empty() ||
                       config_.symmetry_classes.size() == initial_processes_.size(),
                   "symmetry_classes must be empty or name every process");
}

std::optional<Violation> Explorer::run(engine::ProbeHandoff* handoff) {
  stats_ = ExplorerStats{};
  path_.clear();
  table_ops_ = engine::CasTable::OpStats{};
  draining_ = false;
  handoff_ = handoff;

  obs_cells_ = engine::ObsCells::resolve(config_.obs.metrics);
  obs_flushed_ = engine::ObsDeltas{};
  obs_duplicates_ = 0;
  obs_violation_edges_ = 0;
  obs_store_nodes_ = 0;
  obs_store_bytes_ = 0;
  obs_last_flush_transitions_ = 0;
  if (obs_cells_.active) {
    obs_cells_.visited_cap->set(static_cast<std::int64_t>(config_.visited_cap()));
    obs_cells_.num_threads->set(1);
  }

  deadline_ms_ = config_.time_limit_ms > 0
                     ? engine::steady_now_ms() + config_.time_limit_ms
                     : 0;
  rss_cap_bytes_ = config_.mem_limit_mb > 0
                       ? static_cast<std::uint64_t>(config_.mem_limit_mb) << 20
                       : 0;
  next_limit_poll_ = kLimitPollTransitions;

  std::optional<Violation> result;
  try {
    result = explore();
  } catch (const std::bad_alloc&) {
    // An allocation failure becomes the typed truncated verdict with whatever
    // partial stats accumulated — never an abort.
    stats_.truncated = true;
    stats_.stop_reason = StopReason::kMemory;
    result = Violation{
        "memory limit exceeded or allocation failed (mem_limit_mb=" +
            std::to_string(config_.mem_limit_mb) + "); verdict incomplete",
        PropertyKind::kNone, 0, path_};
  }

  if (obs_cells_.active) {
    flush_obs();
    if (stats_.hot.rehashes != 0) {
      obs_cells_.store_rehashes->add(0, stats_.hot.rehashes);
    }
  }
  return result;
}

void Explorer::flush_obs() {
  engine::ObsDeltas totals;
  totals.visited = stats_.visited;
  totals.transitions = stats_.transitions;
  totals.decisions = stats_.decisions;
  totals.terminal_states = stats_.terminal_states;
  totals.duplicates = obs_duplicates_;
  totals.violation_edges = obs_violation_edges_;
  totals.encodes = stats_.store.encodes;
  totals.canonical_hits = stats_.store.canonical_hits;
  totals.nodes = obs_store_nodes_;
  totals.value_bytes = obs_store_bytes_;
  totals.orbit_skipped = stats_.orbit_skipped;
  totals.cas_retries = table_ops_.cas_retries;
  totals.migration_stripes = table_ops_.migration_stripes;

  engine::ObsDeltas delta;
  delta.visited = totals.visited - obs_flushed_.visited;
  delta.transitions = totals.transitions - obs_flushed_.transitions;
  delta.decisions = totals.decisions - obs_flushed_.decisions;
  delta.terminal_states = totals.terminal_states - obs_flushed_.terminal_states;
  delta.duplicates = totals.duplicates - obs_flushed_.duplicates;
  delta.violation_edges = totals.violation_edges - obs_flushed_.violation_edges;
  delta.encodes = totals.encodes - obs_flushed_.encodes;
  delta.canonical_hits = totals.canonical_hits - obs_flushed_.canonical_hits;
  delta.nodes = totals.nodes - obs_flushed_.nodes;
  delta.value_bytes = totals.value_bytes - obs_flushed_.value_bytes;
  delta.orbit_skipped = totals.orbit_skipped - obs_flushed_.orbit_skipped;
  delta.cas_retries = totals.cas_retries - obs_flushed_.cas_retries;
  delta.migration_stripes =
      totals.migration_stripes - obs_flushed_.migration_stripes;
  obs_cells_.flush(0, delta);
  obs_flushed_ = totals;
  obs_last_flush_transitions_ = stats_.transitions;
}

std::optional<Violation> Explorer::poll_limits() {
  if (deadline_ms_ == 0 && rss_cap_bytes_ == 0) return std::nullopt;
  if (stats_.transitions < next_limit_poll_) return std::nullopt;
  next_limit_poll_ = stats_.transitions + kLimitPollTransitions;
  if (deadline_ms_ != 0 && engine::steady_now_ms() >= deadline_ms_) {
    stats_.truncated = true;
    stats_.stop_reason = StopReason::kDeadline;
    return Violation{"time limit exceeded (time_limit_ms=" +
                         std::to_string(config_.time_limit_ms) +
                         "); verdict incomplete",
                     PropertyKind::kNone, 0, path_};
  }
  if (rss_cap_bytes_ != 0) {
    const std::uint64_t rss = engine::current_rss_bytes();
    // A 0 reading means RSS is unavailable on this platform; never trip.
    if (rss != 0 && rss > rss_cap_bytes_) {
      stats_.truncated = true;
      stats_.stop_reason = StopReason::kMemory;
      return Violation{"memory limit exceeded or allocation failed (mem_limit_mb=" +
                           std::to_string(config_.mem_limit_mb) +
                           "); verdict incomplete",
                       PropertyKind::kNone, 0, path_};
    }
  }
  return std::nullopt;
}

std::optional<Violation> Explorer::explore() {
  // Single shard, single arena: the sequential traversal has no concurrent
  // inserters (the lock-free table degenerates to plain probes).
  store_ = std::make_unique<engine::NodeStore>(0);
  codec_ = std::make_unique<engine::NodeCodec>(config_.symmetry_classes);
  orbit_reduction_ = codec_->canonicalizing();
  scratch_node_ =
      engine::make_root(initial_memory_, initial_processes_, config_.properties);

  const engine::NodeCodec::Encoded encoded =
      codec_->encode(scratch_node_, encode_scratch_);
  stats_.store.encodes += 1;
  if (encoded.permuted) stats_.store.canonical_hits += 1;
  const engine::NodeStore::Intern root =
      store_->intern(encoded.fingerprint, encode_scratch_, 0, &table_ops_);
  obs_store_nodes_ += 1;
  obs_store_bytes_ += static_cast<std::uint64_t>(root.length) * sizeof(typesys::Value);

  std::optional<Violation> result = dfs(root.record, root.length);

  const engine::NodeStore::Stats store_stats = store_->stats();
  stats_.store.nodes = store_stats.nodes;
  stats_.store.value_bytes = store_stats.value_bytes;
  stats_.hot.probe_total = table_ops_.probe_total;
  stats_.hot.probe_ops = table_ops_.probe_ops;
  stats_.hot.max_probe = table_ops_.max_probe;
  stats_.hot.cas_retries = table_ops_.cas_retries;
  stats_.hot.migration_stripes = table_ops_.migration_stripes;
  stats_.hot.rehashes = store_stats.rehashes;
  if (draining_) {
    // The drain never stops early, so the probe's own verdict is the plain
    // visited-cap truncation, traced to the state that tripped the cap.
    RCONS_ASSERT(!result.has_value() && !handoff_->frontier.empty());
    result = Violation{"state space exceeded max_visited; verdict incomplete",
                       PropertyKind::kNone, 0, handoff_->frontier.front().path};
    handoff_->store = std::move(store_);
    handoff_->stats = stats_;
  }
  store_.reset();  // release the arena; the stats survive in stats_
  codec_.reset();
  return result;
}

std::optional<Violation> Explorer::dfs(const typesys::Value* record,
                                       std::size_t size) {
  // The parent is its interned record, read in place from the store arena —
  // no Memory/Process clones, no per-depth record copies. Between successors
  // the one scratch node diverges from the record only where the previous
  // event touched it, so restore() refills just that (one program decode per
  // successor instead of n), and per-process successors patch-encode by
  // copying the n-1 unchanged blocks from the parent record.
  const std::size_t depth = path_.size();
  while (events_pool_.size() <= depth) events_pool_.emplace_back();
  std::vector<engine::Event>& events = events_pool_[depth];

  codec_->decode(record, size, scratch_node_);
  // Stabilizer orbits: enumerate one representative event per orbit of
  // interchangeable processes; skipped siblings still count as transitions
  // (edges of the unreduced graph) plus orbit_skipped. The mask is consumed
  // by enumerate_events here, before recursion can overwrite the buffer.
  const std::uint64_t orbit_before = stats_.orbit_skipped;
  const int orbit_count =
      orbit_reduction_ ? codec_->orbit_skip_mask(record, orbit_skip_) : 0;
  engine::enumerate_events(scratch_node_, config_, events,
                           orbit_count > 0 ? &orbit_skip_ : nullptr,
                           &stats_.orbit_skipped);
  stats_.transitions += stats_.orbit_skipped - orbit_before;
  if (engine::is_terminal(scratch_node_)) stats_.terminal_states += 1;
  // Codec header layout: record[1] counts the distinct outputs so far.
  const auto parent_decisions = static_cast<std::size_t>(record[1]);

  int dirty = engine::NodeCodec::kDirtyNone;
  for (const engine::Event& event : events) {
    path_.push_back(event);
    stats_.transitions += 1;
    if (obs_cells_.active &&
        stats_.transitions - obs_last_flush_transitions_ >= kObsFlushTransitions) {
      flush_obs();
    }
    if (auto truncated = poll_limits()) {
      path_.pop_back();
      return truncated;
    }
    if (dirty != engine::NodeCodec::kDirtyNone) {
      codec_->restore(record, size, scratch_node_, dirty);
    }
    dirty = event.kind == engine::Event::Kind::kCrashAll
                ? engine::NodeCodec::kDirtyAll
                : event.process;
    if (auto broken = engine::apply_event(scratch_node_, event, config_)) {
      obs_violation_edges_ += 1;
      if (draining_) {
        // A candidate for the engine, which reports the lowest trace.
        if (!handoff_->has_violation || engine::path_less(path_, handoff_->violation_path)) {
          handoff_->has_violation = true;
          handoff_->violation_path = path_;
          handoff_->violation = std::move(*broken);
        }
        path_.pop_back();
        continue;
      }
      Violation violation{std::move(broken->description), broken->property,
                          broken->param, path_};
      path_.pop_back();
      return violation;
    }
    if (scratch_node_.decisions.size() > parent_decisions) stats_.decisions += 1;
    const engine::NodeCodec::Encoded encoded =
        event.kind == engine::Event::Kind::kCrashAll
            ? codec_->encode(scratch_node_, encode_scratch_)
            : codec_->encode_successor(record, size, scratch_node_,
                                       event.process, encode_scratch_);
    stats_.store.encodes += 1;
    if (encoded.permuted) stats_.store.canonical_hits += 1;
    const engine::NodeStore::Intern interned =
        store_->intern(encoded.fingerprint, encode_scratch_, 0, &table_ops_);
    if (interned.inserted) {
      obs_store_nodes_ += 1;
      obs_store_bytes_ +=
          static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);
      stats_.visited += 1;
      if (stats_.visited > config_.visited_cap()) {
        if (!draining_) {
          stats_.truncated = true;
          stats_.stop_reason = StopReason::kVisitedCap;
          if (handoff_ == nullptr) {
            Violation violation{"state space exceeded max_visited; verdict incomplete",
                                PropertyKind::kNone, 0, path_};
            path_.pop_back();
            return violation;
          }
          // Finish the stack for the engine (engine/handoff.hpp). The drain
          // is bounded by the events left on the stack and a handoff is only
          // useful whole, so the sentinels stop polling.
          draining_ = true;
          deadline_ms_ = 0;
          rss_cap_bytes_ = 0;
        }
        handoff_->frontier.push_back({interned.record, interned.length, path_});
      } else {
        if (auto violation = dfs(interned.record, interned.length)) {
          path_.pop_back();
          return violation;
        }
        // Recursion re-pointed the codec's captured layout at descendant
        // records; a full re-decode (restore with kDirtyAll) re-captures this
        // record's layout before the next sibling.
        dirty = engine::NodeCodec::kDirtyAll;
      }
    } else {
      obs_duplicates_ += 1;
    }
    path_.pop_back();
  }

  return std::nullopt;
}

}  // namespace rcons::sim
