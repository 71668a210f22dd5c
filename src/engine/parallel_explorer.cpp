#include "engine/parallel_explorer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/fault_inject.hpp"
#include "engine/sentinel.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

namespace {

// Adaptive pop-batch sizing: how many items a worker drains from the
// frontier per lock acquisition. Fixed batches lose both ways — too large
// and a worker hoards frontier items while its peers' steals come back
// empty; too small and every worker pays a lock round-trip per handful of
// nodes. Each worker sizes its own batch inside [kMinPopBatch, kMaxPopBatch]
// from two observations at its next pop: the frontier-wide failed-steal
// counter advanced since it last looked (peers are starving — halve, keep
// work visible to steals), or its previous pop came back full from its own
// deque (the local deque runs deep and nobody is starving — double).
constexpr std::size_t kMinPopBatch = 4;
constexpr std::size_t kInitPopBatch = 16;
constexpr std::size_t kMaxPopBatch = 128;

// Transitions between inline polls of the time/memory limits (both
// traversals) and between the depth-first traversal's metric flushes.
constexpr std::uint64_t kPollTransitions = 1024;
constexpr std::uint64_t kNever = ~std::uint64_t{0};

}  // namespace

ParallelExplorer::ParallelExplorer(sim::Memory initial,
                                   std::vector<sim::Process> processes,
                                   sim::ExplorerConfig config)
    : initial_memory_(std::move(initial)),
      initial_processes_(std::move(processes)),
      config_(std::move(config)) {
  RCONS_ASSERT(!initial_processes_.empty());
  RCONS_ASSERT(config_.crash_budget >= 0);
  RCONS_ASSERT_MSG(config_.num_threads >= 0,
                   "num_threads must be >= 0 (0 selects hardware concurrency)");
  RCONS_ASSERT_MSG(config_.symmetry_classes.empty() ||
                       config_.symmetry_classes.size() == initial_processes_.size(),
                   "symmetry_classes must be empty or name every process");
  RCONS_ASSERT_MSG(config_.sentinel_interval_ms >= 1,
                   "sentinel_interval_ms must be >= 1");
  if (config_.num_threads > 0) resolve_threads();
}

void ParallelExplorer::resolve_threads() {
  if (num_threads_ > 0) return;
  num_threads_ = config_.num_threads;
  if (num_threads_ <= 0) {
    num_threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads_ <= 0) num_threads_ = 1;
  }
}

void ParallelExplorer::reset_run() {
  stats_ = ExplorerStats{};
  store_.reset();
  base_ = Tally{};
  cut_.clear();
  draining_ = false;
  stop_reason_.store(static_cast<int>(sim::StopReason::kNone), std::memory_order_relaxed);
  has_violation_ = false;
  best_path_.clear();
  best_violation_ = sim::PropertyViolation{};
  truncation_path_.clear();
  watchdog_dump_.clear();
  obs_cells_ = ObsCells::resolve(config_.obs.metrics);
  limits_.deadline_ms =
      config_.time_limit_ms > 0 ? steady_now_ms() + config_.time_limit_ms : 0;
  limits_.rss_cap_bytes =
      config_.mem_limit_mb > 0 ? static_cast<std::uint64_t>(config_.mem_limit_mb) << 20 : 0;
}

sim::StopReason ParallelExplorer::Limits::sample() const {
  if (deadline_ms != 0 && steady_now_ms() >= deadline_ms) {
    return sim::StopReason::kDeadline;
  }
  if (rss_cap_bytes != 0) {
    const std::uint64_t rss = current_rss_bytes();
    // A 0 reading means RSS is unavailable on this platform; never trip.
    if (rss != 0 && rss > rss_cap_bytes) return sim::StopReason::kMemory;
  }
  return sim::StopReason::kNone;
}

void ParallelExplorer::offer_violation(std::vector<Event> path,
                                       sim::PropertyViolation broken) {
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (!has_violation_ || path_less(path, best_path_)) {
    has_violation_ = true;
    best_path_ = std::move(path);
    best_violation_ = std::move(broken);
  }
}

void ParallelExplorer::request_stop(sim::StopReason reason) {
  int expected = static_cast<int>(sim::StopReason::kNone);
  stop_reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_relaxed);
  stop_.store(true, std::memory_order_relaxed);
  // A stop must never leave anyone waiting: release fault-injected stalls.
  // The workers then exit, and the last one wakes the coordinator.
  if (config_.fault != nullptr) config_.fault->release_stalls();
}

void ParallelExplorer::record_truncation(const PathLink* tail, const Event& event) {
  request_stop(sim::StopReason::kVisitedCap);
  // Best-effort trace of where the budget ran out (like the depth-first
  // traversal's partial trace); first recorder wins.
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (!truncated_.load(std::memory_order_relaxed)) {
    truncated_.store(true, std::memory_order_relaxed);
    truncation_path_ = materialize_path(tail);
    truncation_path_.push_back(event);
    if (obs_cells_.active) obs_cells_.truncations->add(0, 1);
  }
}

sim::Violation ParallelExplorer::truncated(sim::StopReason reason,
                                           std::vector<Event> path) const {
  auto verdict = [&](std::string description) {
    return sim::Violation{std::move(description), sim::PropertyKind::kNone, 0, std::move(path)};
  };
  switch (reason) {
    case sim::StopReason::kNone:
      break;
    case sim::StopReason::kVisitedCap:
      return verdict("state space exceeded max_visited; verdict incomplete");
    case sim::StopReason::kDeadline:
      return verdict("time limit exceeded (time_limit_ms=" +
                     std::to_string(config_.time_limit_ms) + "); verdict incomplete");
    case sim::StopReason::kMemory:
      return verdict("memory limit exceeded or allocation failed (mem_limit_mb=" +
                     std::to_string(config_.mem_limit_mb) + "); verdict incomplete");
    case sim::StopReason::kWatchdog:
      return verdict("watchdog: worker made no progress; verdict incomplete —" +
                     watchdog_dump_);
    case sim::StopReason::kForcedStop:
      return verdict("run stopped by external request; verdict incomplete");
  }
  return verdict("run stopped; verdict incomplete");
}

void ParallelExplorer::finish_stats(const Tally& total, sim::StopReason reason) {
  // An escalated probe already published the growth of the index it hands on.
  const std::uint64_t published = stats_.rehashes;
  static_cast<Tally&>(stats_) = total;
  stats_.stop_reason = reason;
  if (store_ != nullptr) stats_.rehashes = store_->rehashes();
  if (obs_cells_.active && stats_.rehashes > published) {
    obs_cells_.store_rehashes->add(0, stats_.rehashes - published);
  }
}

// --- the expansion step ------------------------------------------------------

NodeCodec::Encoded ParallelExplorer::encode_root(Scratch& s, Tally& tally,
                                                 NodeStore::Intern* interned) {
  const NodeCodec::Encoded encoded = s.codec.encode(s.node, s.record);
  tally.encodes += 1;
  if (encoded.permuted) tally.canonical_hits += 1;
  if (interned != nullptr) {
    *interned = store_->intern(encoded.fingerprint, s.record, 0, &tally);
    store_->fold(tally);
    tally.store_nodes += 1;
    tally.store_bytes += static_cast<std::uint64_t>(interned->length) * sizeof(typesys::Value);
  }
  return encoded;
}

template <ParallelExplorer::Order order, typename Stop, typename Violating, typename Intern,
          typename Fresh>
bool ParallelExplorer::expand(Scratch& s, const typesys::Value* record, std::uint32_t length,
                              std::size_t depth, Tally& tally, Stop&& stop,
                              Violating&& violating, Intern&& intern, Fresh&& fresh) {
  // The parent is its interned record, read in place from the store arena.
  // decode() also captures the record's layout for the restore and
  // patch-encode fast paths of the build step.
  s.codec.decode(record, length, s.node);
  while (s.events.size() <= depth) s.events.emplace_back();
  std::vector<Event>& events = s.events[depth];
  // Stabilizer orbits: enumerate one representative event per orbit of
  // interchangeable processes; the skipped siblings still count as
  // transitions (edges of the unreduced graph) plus orbit_skipped. The mask
  // is consumed here, before a hook can reuse the buffer.
  const std::uint64_t orbit_before = tally.orbit_skipped;
  const int orbit_count =
      s.codec.canonicalizing() ? s.codec.orbit_skip_mask(record, s.orbit_skip) : 0;
  enumerate_events(s.node, config_, events, orbit_count > 0 ? &s.orbit_skip : nullptr,
                   &tally.orbit_skipped);
  tally.transitions += tally.orbit_skipped - orbit_before;
  if (is_terminal(s.node)) tally.terminal_states += 1;
  // Codec header layout: record[1] counts the distinct outputs so far.
  const auto parent_decisions = static_cast<std::size_t>(record[1]);

  // The build step: applies `event` to the scratch node and returns the
  // property it breaks, or else appends the successor's pieces to s.pieces
  // and fills `built`. It counts nothing. Between successors the scratch
  // node diverges from the parent record only where the previous event
  // touched it: the shared flat fields plus exactly one process (or all of
  // them after a crash-all). restore() re-decodes just that — one program
  // decode per successor instead of n.
  int dirty = NodeCodec::kDirtyNone;
  const auto build = [&](const Event& event,
                         Successor& built) -> std::optional<sim::PropertyViolation> {
    if (dirty != NodeCodec::kDirtyNone) s.codec.restore(record, length, s.node, dirty);
    dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
    if (auto broken = apply_event(s.node, event, config_)) return broken;
    built.decided = s.node.decisions.size() > parent_decisions;
    // Per-process events leave n-1 blocks byte-identical to the parent
    // record: the pieces hold only what differs, and the fingerprint reuses
    // the parent's block digests.
    built.delta = s.codec.encode_delta(
        s.node, event.kind == Event::Kind::kCrashAll ? NodeCodec::kWhole : event.process,
        s.pieces);
    return std::nullopt;
  };
  // The classify step: counts the transition and runs the hooks, on
  // `broken` when the event breaks a property, else on `built`. The intern
  // hook gets the writer of the successor's record, which runs only if the
  // record is new.
  const auto classify = [&](const Event& event, const Successor& built,
                            sim::PropertyViolation* broken) {
    tally.transitions += 1;
    if (broken != nullptr) {
      tally.violation_edges += 1;
      // A violating edge is never expanded further.
      return violating(event, *broken) ? Next::kStop : Next::kContinue;
    }
    if (built.decided) tally.decisions += 1;
    tally.encodes += 1;
    if (built.delta.permuted) tally.canonical_hits += 1;
    const NodeStore::Intern interned =
        intern(built.delta.fingerprint, built.delta.length, [&](typesys::Value* out) {
          s.codec.materialize(s.pieces.data(), built.delta, out);
        });
    if (!interned.inserted) {
      tally.duplicates += 1;
      return Next::kContinue;
    }
    tally.store_nodes += 1;
    tally.store_bytes += static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);
    tally.visited += 1;
    return fresh(event, interned);
  };

  if constexpr (order == Order::kInterleaved) {
    for (const Event& event : events) {
      // Stop before counting the event, so a stop leaves no transition
      // unclassified.
      if (stop()) return false;
      s.pieces.clear();
      Successor built;
      auto broken = build(event, built);
      const Next next = classify(event, built, broken ? &*broken : nullptr);
      if (next == Next::kStop) return false;
      // A hook that reused `s` re-pointed the codec's captured layout at
      // other records; a full re-decode re-captures this one's before the
      // next event.
      if (next == Next::kRedecode) dirty = NodeCodec::kDirtyAll;
    }
  } else {
    // Build every successor's pieces first, starting the load of each one's
    // index slot, so the classify pass finds most of them in cache.
    // Violations wait in s.violations, in event order.
    s.pieces.clear();
    s.successors.clear();
    s.violations.clear();
    for (const Event& event : events) {
      Successor& built = s.successors.emplace_back();
      if (auto broken = build(event, built)) {
        built.broken = true;
        s.violations.push_back(std::move(*broken));
        continue;
      }
      store_->prefetch(built.delta.fingerprint);
    }
    sim::PropertyViolation* broken = s.violations.data();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (stop()) return false;
      const Successor& built = s.successors[i];
      const Next next = classify(events[i], built, built.broken ? broken++ : nullptr);
      if (next == Next::kStop) return false;
      RCONS_DCHECK_MSG(next == Next::kContinue,
                       "the batched order's hooks must leave the scratch alone");
    }
  }
  return true;
}

// --- depth-first traversal ----------------------------------------------------

std::optional<sim::Violation> ParallelExplorer::run_dfs(std::uint64_t probe_cap) {
  reset_run();
  dfs_cap_ = probe_cap < config_.visited_cap() ? probe_cap : config_.visited_cap();
  dfs_ = Tally{};
  dfs_flushed_ = Tally{};
  dfs_next_poll_ = obs_cells_.active || limits_.armed() ? kPollTransitions : kNever;
  path_.clear();
  if (obs_cells_.active) {
    obs_cells_.visited_cap->set(static_cast<std::int64_t>(dfs_cap_));
    obs_cells_.num_threads->set(1);
  }

  std::optional<sim::Violation> result;
  try {
    // One arena: no concurrent inserters (the lock-free table degenerates
    // to plain probes). escalate() adds the workers' arenas.
    store_ = std::make_unique<NodeStore>(0);
    scratch_.emplace(*this);
    NodeStore::Intern root;
    encode_root(*scratch_, dfs_, &root);
    result = dfs(root.record, root.length);
    if (draining_) {
      // The drain never stops early, so the probe's own verdict is the plain
      // visited-cap truncation, traced to the state that tripped the cap.
      RCONS_ASSERT(!result.has_value() && !cut_.empty());
      result = truncated(sim::StopReason::kVisitedCap, cut_.front().path);
      draining_ = false;
    }
  } catch (const std::bad_alloc&) {
    // An allocation failure becomes the typed truncated verdict with whatever
    // partial stats accumulated — never an abort — and is never escalated.
    // The event in flight was counted but never classified: reconcile, as
    // the worker loop does.
    dfs_.transitions = dfs_.classified();
    stop_reason_.store(static_cast<int>(sim::StopReason::kMemory), std::memory_order_relaxed);
    result = truncated(sim::StopReason::kMemory, path_);
    cut_.clear();
    draining_ = false;
  }

  if (store_ != nullptr) store_->fold(dfs_);
  dcheck_transitions_identity(dfs_);
  obs_cells_.flush(0, dfs_, dfs_flushed_);
  finish_stats(dfs_, static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed)));
  scratch_.reset();
  if (cut_.empty()) store_.reset();  // release the arena; stats survive in stats_
  return result;
}

std::optional<sim::Violation> ParallelExplorer::dfs(const typesys::Value* record,
                                                    std::uint32_t length) {
  std::optional<sim::Violation> result;
  expand<Order::kInterleaved>(
      *scratch_, record, length, path_.size(), dfs_,
      [&] {
        // Every kPollTransitions transitions: flush metrics, and sample the
        // limits (not while draining).
        if (dfs_.transitions < dfs_next_poll_) return false;
        dfs_next_poll_ = dfs_.transitions + kPollTransitions;
        dcheck_transitions_identity(dfs_);
        obs_cells_.flush(0, dfs_, dfs_flushed_);
        const sim::StopReason reason =
            draining_ || !limits_.armed() ? sim::StopReason::kNone : limits_.sample();
        if (reason == sim::StopReason::kNone) return false;
        request_stop(reason);
        result = truncated(reason, path_);
        return true;
      },
      [&](const Event& event, sim::PropertyViolation& broken) {
        std::vector<Event> path = path_;
        path.push_back(event);
        if (draining_) {
          offer_violation(std::move(path), std::move(broken));  // a candidate for escalate()
          return false;
        }
        result = sim::Violation{std::move(broken.description), broken.property, broken.param,
                                std::move(path)};
        return true;
      },
      [&](util::U128 fingerprint, std::uint32_t length, auto&& write) {
        return store_->intern(fingerprint, length, write, 0, &dfs_);
      },
      [&](const Event& event, const NodeStore::Intern& interned) {
        path_.push_back(event);
        Next next = Next::kContinue;
        if (dfs_.visited <= dfs_cap_) {
          result = dfs(interned.record, interned.length);
          next = result.has_value() ? Next::kStop : Next::kRedecode;
        } else if (!draining_ && dfs_cap_ == config_.visited_cap()) {
          request_stop(sim::StopReason::kVisitedCap);
          result = truncated(sim::StopReason::kVisitedCap, path_);
          next = Next::kStop;
        } else {
          if (!draining_) {
            // A probe: finish the stack for escalate(). The drain is bounded
            // by the events left on the stack and a cut is only useful whole,
            // so the limits are not polled until it ends.
            request_stop(sim::StopReason::kVisitedCap);
            draining_ = true;
          }
          cut_.push_back(Deferred{interned.record, interned.length, path_});
        }
        path_.pop_back();
        return next;
      });
  return result;
}

// --- worker loop ---------------------------------------------------------------

void ParallelExplorer::worker_exit(int id) {
  heartbeats_[static_cast<std::size_t>(id)].beats.store(kHeartbeatExited,
                                                        std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exit_mu_);
  if (--running_ == 0) exit_cv_.notify_all();
}

bool ParallelExplorer::stalled(Watch& watch, std::string& dump) const {
  for (int i = 0; i < num_threads_; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const std::uint64_t beats = heartbeats_[slot].beats.load(std::memory_order_relaxed);
    if (beats == kHeartbeatExited) {
      watch.stalled[slot] = 0;
      continue;
    }
    if (beats == watch.last_beats[slot]) {
      watch.stalled[slot] += 1;
    } else {
      watch.stalled[slot] = 0;
      watch.last_beats[slot] = beats;
    }
    if (watch.stalled[slot] >= config_.watchdog_stall_intervals) {
      dump += " worker " + std::to_string(i) + ": no progress for " +
              std::to_string(watch.stalled[slot]) + " intervals (heartbeat=" +
              std::to_string(beats) + ")";
    }
  }
  return !dump.empty();
}

void ParallelExplorer::worker(int id, CompactFrontier& frontier, PathArena& arena,
                              std::atomic<std::uint64_t>& pending, Tally& local,
                              Tally& flushed) {
  // Per-worker reusable state: the expansion scratch and the popped and
  // successor batches. Zero allocations per successor after warmup.
  Scratch scratch(*this);
  std::vector<CompactWorkItem> batch;
  std::vector<CompactWorkItem> successors;

  // Observability: metrics flush at batch boundaries (obs_cells_ inactive =
  // one predicted branch per batch), spans on the tracer's worker lane.
  obs::Tracer* const tracer = config_.obs.tracer;
  const std::size_t obs_lane = 1 + static_cast<std::size_t>(id);
  const std::size_t trace_lane = tracer != nullptr ? tracer->worker_lane(id) : 0;
  if (tracer != nullptr) {
    tracer->set_lane_name(trace_lane, "worker-" + std::to_string(id));
  }
  // Workers flush only at event-classification boundaries, where the
  // conservation law must hold exactly. The pending gauge is last-write-wins,
  // so any worker's relaxed sample is equally good.
  auto flush_obs = [&] {
    dcheck_transitions_identity(local);
    obs_cells_.flush(obs_lane, local, flushed);
    obs_cells_.frontier_pending->set(
        static_cast<std::int64_t>(pending.load(std::memory_order_relaxed)));
  };

  // The frontier hand-over, once per popped batch (and when the worker
  // leaves). Until then the popped items stay pending-counted and the new
  // states wait in `successors`, so one RMW settles both: `gained` new states
  // in, `finished` items expanded whole out (modular, so a net loss
  // subtracts). Items handed back unfinished — an expansion a stop cut short,
  // the unexpanded remainder — ride in `successors` still counted. The RMW
  // precedes the push, so `pending` never reads 0 while an item exists.
  std::uint64_t gained = 0;
  std::uint64_t finished = 0;
  auto hand_over = [&] {
    if (gained != finished) pending.fetch_add(gained - finished, std::memory_order_release);
    if (gained != 0) {
      local.batches += 1;
      local.batched_items += gained;
      if (obs_cells_.active) obs_cells_.batch_size->record(obs_lane, gained);
    }
    gained = 0;
    finished = 0;
    // All or nothing: a push that fails leaves `successors` for the catch.
    frontier.push_batch(id, successors);
    successors.clear();
  };

  const std::uint64_t worker_begin = tracer != nullptr ? tracer->now_us() : 0;
  std::uint64_t batch_begin = 0;
  std::size_t pop_batch = kInitPopBatch;
  std::uint64_t steal_mark = frontier.failed_steals();
  Heartbeat& heartbeat = heartbeats_[static_cast<std::size_t>(id)];
  std::uint64_t beats = 0;
  FaultPlan* const fault = config_.fault;
  std::uint64_t next_poll = limits_.armed() ? kPollTransitions : kNever;
  CompactWorkItem item;
  bool in_flight = false;  // `item` is popped but neither finished nor handed back

  // Any allocation failure — fault-injected at the batch/intern sites or a
  // real bad_alloc out of index/arena/deque growth — lands here and becomes
  // the typed StopReason::kMemory truncated verdict; it never escapes.
  try {
    for (;;) {
      heartbeat.beats.store(++beats, std::memory_order_relaxed);
      if (local.transitions >= next_poll) {
        next_poll = local.transitions + kPollTransitions;
        const sim::StopReason reason = limits_.sample();
        if (reason != sim::StopReason::kNone) request_stop(reason);
      }
      if (batch.empty()) {
        // Cooperative stop or yield: exit immediately. Queued work stays
        // queued (and pending-counted), so the checkpoint taken after the
        // join sees every outstanding item; every worker leaves through this
        // check, so pending never reaching 0 cannot hang anyone.
        if (stop_.load(std::memory_order_relaxed) || yield_.load(std::memory_order_relaxed)) {
          break;
        }
        if (obs_cells_.active) flush_obs();
        // Adapt the batch size to observed steal pressure before popping.
        const std::uint64_t failed = frontier.failed_steals();
        if (failed != steal_mark) {
          steal_mark = failed;
          pop_batch = pop_batch / 2 < kMinPopBatch ? kMinPopBatch : pop_batch / 2;
        }
        const std::uint64_t pop_begin = tracer != nullptr ? tracer->now_us() : 0;
        bool stole = false;
        const std::size_t got = frontier.pop_batch(id, batch, pop_batch, &stole);
        if (got == 0) {
          if (pending.load(std::memory_order_acquire) == 0) break;
          std::this_thread::yield();
          continue;
        }
        if (fault != nullptr &&
            fault->hit(FaultPlan::Site::kBatch) == FaultPlan::Action::kStop) {
          request_stop(sim::StopReason::kForcedStop);
        }
        if (!stole && got == pop_batch && pop_batch < kMaxPopBatch) {
          pop_batch *= 2;  // local deque runs deep, nobody is starving
        }
        if (tracer != nullptr) {
          batch_begin = tracer->now_us();
          if (stole) tracer->complete(trace_lane, "steal", pop_begin, batch_begin);
        }
      }
      item = batch.back();
      batch.pop_back();
      in_flight = true;

      const bool complete = expand<Order::kBatched>(
          scratch, item.record, item.length, 0, local,
          [&] { return stop_.load(std::memory_order_relaxed); },
          [&](const Event& event, sim::PropertyViolation& broken) {
            std::vector<Event> path = materialize_path(item.tail);
            path.push_back(event);
            offer_violation(std::move(path), std::move(broken));
            return false;
          },
          [&](util::U128 fingerprint, std::uint32_t length, auto&& write) {
            if (fault != nullptr &&
                fault->hit(FaultPlan::Site::kIntern) == FaultPlan::Action::kStop) {
              request_stop(sim::StopReason::kForcedStop);
            }
            // A state interned first must reach `successors`: its slot and
            // path link are reserved before the intern, so nothing between
            // the two can fail.
            if (successors.size() == successors.capacity()) {
              successors.reserve(2 * successors.size() + kMaxPopBatch);
            }
            arena.reserve();
            return store_->intern(fingerprint, length, write, id, &local);
          },
          [&](const Event& event, const NodeStore::Intern& interned) {
            const std::uint64_t count =
                visited_count_.fetch_add(1, std::memory_order_relaxed) + 1;
            if (count > config_.visited_cap()) {
              record_truncation(item.tail, event);
              return Next::kStop;
            }
            successors.push_back(
                CompactWorkItem{interned.record, interned.length, arena.add(event, item.tail)});
            gained += 1;
            return Next::kContinue;
          });

      if (complete) {
        finished += 1;
      } else {
        // A stop interrupted this expansion: hand the item back WITHOUT
        // releasing its pending slot. A resumed run re-expands it and the
        // already-interned successors dedup away, so nothing is lost and
        // visited counts stay exact.
        successors.push_back(item);
      }
      in_flight = false;
      if (stop_.load(std::memory_order_relaxed) || yield_.load(std::memory_order_relaxed)) {
        // Leaving: the unexpanded remainder goes back with the successors
        // (still pending-counted), so the checkpoint after the join sees
        // every outstanding item; the next iteration exits.
        successors.insert(successors.end(), batch.begin(), batch.end());
        batch.clear();
      }
      if (batch.empty()) {
        hand_over();
        if (tracer != nullptr) {
          tracer->complete(trace_lane, "expand_batch", batch_begin, tracer->now_us());
        }
      }
    }
  } catch (const std::bad_alloc&) {
    // An allocation failed mid-expansion (real exhaustion or an injected
    // alloc fault): the in-flight event was counted but never classified, or
    // orbit skips were recorded before their transition credit landed.
    // Reconciling to the classified sum keeps the conservation law exact at
    // the DCHECK below; the run is truncated (kMemory) either way.
    local.transitions = local.classified();
    request_stop(sim::StopReason::kMemory);
    // Hand back everything the worker holds, as a stop does: the collected
    // successors, the in-flight item (still counted, like a stopped
    // expansion) and the unexpanded remainder, so the final checkpoint
    // resumes to the exact count.
    try {
      if (in_flight) successors.push_back(item);
      successors.insert(successors.end(), batch.begin(), batch.end());
      batch.clear();
      hand_over();
    } catch (const std::bad_alloc&) {
      // The frontier could not take the items back: no consistent cut is
      // left, so explore() writes no further checkpoint.
      work_lost_.store(true, std::memory_order_relaxed);
    }
  }

  store_->fold(local);  // size() is exact once every worker exited
  dcheck_transitions_identity(local);  // holds even when obs flushing is off
  if (obs_cells_.active) flush_obs();
  if (tracer != nullptr) {
    tracer->complete(trace_lane, "worker", worker_begin, tracer->now_us());
  }
  worker_exit(id);
}

std::optional<sim::Violation> ParallelExplorer::run() {
  reset_run();
  return explore();
}

std::optional<sim::Violation> ParallelExplorer::escalate() {
  RCONS_ASSERT_MSG(can_escalate(), "escalate() continues a run_dfs() stopped at its probe cap");
  RCONS_ASSERT_MSG(config_.checkpoint_path.empty() && config_.resume == nullptr,
                   "an escalated probe cannot be combined with checkpoint or resume");
  return explore();
}

std::optional<sim::Violation> ParallelExplorer::explore() {
  resolve_threads();
  stop_.store(false, std::memory_order_relaxed);
  stop_reason_.store(static_cast<int>(sim::StopReason::kNone), std::memory_order_relaxed);
  truncated_.store(false, std::memory_order_relaxed);
  yield_.store(false, std::memory_order_relaxed);
  work_lost_.store(false, std::memory_order_relaxed);
  checkpoints_written_ = 0;
  resumed_checkpoints_ = 0;
  heartbeats_ = std::make_unique<Heartbeat[]>(static_cast<std::size_t>(num_threads_));
  if (obs_cells_.active) {
    obs_cells_.visited_cap->set(static_cast<std::int64_t>(config_.visited_cap()));
    obs_cells_.num_threads->set(num_threads_);
  }

  CompactFrontier frontier(num_threads_);
  std::vector<PathArena> arenas(static_cast<std::size_t>(num_threads_));
  std::atomic<std::uint64_t> pending{0};
  std::vector<Tally> tallies(static_cast<std::size_t>(num_threads_));
  std::vector<Tally> flushed(static_cast<std::size_t>(num_threads_));
  auto seed = [&](std::size_t i, const typesys::Value* record, std::uint32_t length,
                  const PathLink* tail) {
    pending.fetch_add(1, std::memory_order_release);
    frontier.push(static_cast<int>(i % static_cast<std::size_t>(num_threads_)),
                  CompactWorkItem{record, length, tail});
  };

  // The root is always encoded — a resume checks its fingerprint against the
  // checkpoint's (same initial memory + programs) before trusting the file.
  // Only a run from the root interns it and keeps its counts in base_; a
  // resume or an escalation replaces base_ with the counts it continues.
  const bool from_root = config_.resume == nullptr && cut_.empty();
  if (cut_.empty()) store_ = std::make_unique<NodeStore>(0, 0, num_threads_);
  Scratch root_scratch(*this);
  NodeStore::Intern root;
  const NodeCodec::Encoded root_encoded =
      encode_root(root_scratch, base_, from_root ? &root : nullptr);

  if (config_.resume != nullptr) {
    const CheckpointData& ckpt = *config_.resume;
    RCONS_ASSERT_MSG(ckpt.root_fp.lo == root_encoded.fingerprint.lo &&
                         ckpt.root_fp.hi == root_encoded.fingerprint.hi,
                     "resume checkpoint was taken from a different root state");
    RCONS_ASSERT_MSG(ckpt.config_hash == checkpoint_config_hash(config_),
                     "resume checkpoint was taken under a different config");
    // Re-intern the checkpointed records: the store again doubles as the
    // visited set, so every state expanded before the cut dedups away when
    // the resumed frontier re-reaches it.
    static_assert(std::is_same_v<typesys::Value, std::int64_t>,
                  "checkpoint records are raw value vectors");
    base_ = ckpt.stats;
    resumed_checkpoints_ = ckpt.stats.checkpoints_written;
    // The store counts are recounted from the records re-interned here, so
    // store_nodes == visited + 1 holds on as before the cut.
    base_.store_nodes = ckpt.nodes.size();
    base_.store_bytes = 0;
    std::vector<NodeStore::Intern> interned;
    interned.reserve(ckpt.nodes.size());
    for (const CheckpointData::Node& node : ckpt.nodes) {
      interned.push_back(store_->intern(node.fp, node.values));
      base_.store_bytes +=
          static_cast<std::uint64_t>(interned.back().length) * sizeof(typesys::Value);
    }
    if (ckpt.has_violation) {
      has_violation_ = true;
      best_violation_.description = ckpt.violation_description;
      best_violation_.property = ckpt.violation_property;
      best_violation_.param = ckpt.violation_param;
      best_path_ = ckpt.violation_schedule;
    }
    // Re-seed the frontier round-robin (path backlinks are not checkpointed:
    // post-resume violation traces are suffixes rooted at the cut).
    for (std::size_t i = 0; i < ckpt.frontier.size(); ++i) {
      const NodeStore::Intern& node = interned[ckpt.frontier[i]];
      seed(i, node.record, node.length, nullptr);
    }
  } else if (!cut_.empty()) {
    // The DFS's counts are part of this run's totals (its obs counters are
    // already in the registry, so nothing is flushed for them here).
    base_ = dfs_;
    store_->add_arenas(num_threads_);
    // Arena paths from the root, so violations below a deferred state report
    // full schedules. The cut is small (77 states on Sn(5) n=5 c=1 with the
    // default 32,768-state probe), so each path gets its own chain.
    for (std::size_t i = 0; i < cut_.size(); ++i) {
      const PathLink* tail = nullptr;
      for (const Event& event : cut_[i].path) tail = arenas[0].add(event, tail);
      seed(i, cut_[i].record, cut_[i].length, tail);
    }
    cut_.clear();
  } else {
    // The coordinator's root intern, flushed on lane 0, so store.* totals
    // match the store exactly (the workers account everything else live).
    Tally unflushed;
    obs_cells_.flush(0, base_, unflushed);
    seed(0, root.record, root.length, nullptr);
  }
  visited_count_.store(base_.visited, std::memory_order_relaxed);

  auto total = [&] {
    Tally sum = base_;
    for (const Tally& local : tallies) sum += local;
    return sum;
  };
  const std::uint64_t config_hash = checkpoint_config_hash(config_);

  // Fills a checkpoint from the current state. Caller contract: the workers
  // have all joined (frontier + store quiescent, tallies stable).
  auto gather = [&](CheckpointData& data) {
    data.config_hash = config_hash;
    data.label = config_.checkpoint_label;
    data.root_fp = root_encoded.fingerprint;
    static_cast<Tally&>(data.stats) = total();
    data.stats.checkpoints_written = resumed_checkpoints_ + checkpoints_written_;
    {
      std::lock_guard<std::mutex> lock(violation_mu_);
      data.has_violation = has_violation_;
      if (has_violation_) {
        data.violation_description = best_violation_.description;
        data.violation_property = best_violation_.property;
        data.violation_param = best_violation_.param;
        data.violation_schedule = best_path_;
      }
    }
    data.nodes.clear();
    data.frontier.clear();
    std::unordered_map<const typesys::Value*, std::uint64_t> record_index;
    store_->for_each_record(
        [&](util::U128 fp, const typesys::Value* values, std::uint32_t length) {
          record_index.emplace(values, data.nodes.size());
          CheckpointData::Node node;
          node.fp = fp;
          node.values.assign(values, values + length);
          data.nodes.push_back(std::move(node));
        });
    std::vector<CompactWorkItem> items;
    frontier.snapshot(items);
    // Quiescence invariant (PR 8): with every worker joined, each
    // pending-counted item is physically in the frontier — none are buffered
    // worker-side or mid-expansion. A mismatch means the cut is not
    // consistent and the checkpoint would silently lose or duplicate work.
    RCONS_DCHECK_MSG(pending.load(std::memory_order_relaxed) == items.size(),
                     "checkpoint cut taken without frontier quiescence "
                     "(pending != snapshot size)");
    data.frontier.reserve(items.size());
    for (const CompactWorkItem& item : items) {
      const auto it = record_index.find(item.record);
      RCONS_ASSERT_MSG(it != record_index.end(),
                       "frontier item missing from the node store");
      data.frontier.push_back(it->second);
    }
  };

  std::vector<std::thread> threads;
  auto start_workers = [&] {
    running_ = num_threads_;  // no worker runs, so no lock is needed
    threads.clear();
    for (int id = 0; id < num_threads_; ++id) {
      const auto slot = static_cast<std::size_t>(id);
      threads.emplace_back([this, id, slot, &frontier, &arenas, &pending, &tallies, &flushed] {
        worker(id, frontier, arenas[slot], pending, tallies[slot], flushed[slot]);
      });
    }
  };

  // The coordinator: this thread waits for the workers to exit, and once per
  // sentinel interval meanwhile runs the watchdog scan and the periodic
  // checkpoint trigger. Each time every worker has exited it joins them and
  // gathers a checkpoint — the only place one is taken. After a yield
  // (neither a stop nor a drained frontier) it restarts the workers and
  // writes the file while they run; otherwise the run is over and this is
  // the final checkpoint, complete, truncated or violating alike.
  const bool periodic = !config_.checkpoint_path.empty() && config_.checkpoint_every > 0;
  const auto n = static_cast<std::size_t>(num_threads_);
  Watch watch{std::vector<std::uint64_t>(n, 0), std::vector<int>(n, 0)};
  std::uint64_t next_checkpoint = base_.visited + config_.checkpoint_every;
  std::string checkpoint_error;
  start_workers();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(exit_mu_);
      if (!exit_cv_.wait_for(lock, std::chrono::milliseconds(config_.sentinel_interval_ms),
                             [&] { return running_ == 0; })) {
        lock.unlock();
        if (stop_.load(std::memory_order_relaxed)) continue;  // the workers are leaving
        std::string dump;
        if (config_.watchdog_stall_intervals > 0 && stalled(watch, dump)) {
          {
            std::lock_guard<std::mutex> vlock(violation_mu_);
            watchdog_dump_ = dump;
          }
          request_stop(sim::StopReason::kWatchdog);
        } else if (periodic && visited_count_.load(std::memory_order_relaxed) >= next_checkpoint) {
          yield_.store(true, std::memory_order_relaxed);
        }
        continue;
      }
    }
    for (std::thread& thread : threads) thread.join();
    const bool restart = yield_.load(std::memory_order_relaxed) &&
                        !stop_.load(std::memory_order_relaxed) &&
                        pending.load(std::memory_order_relaxed) != 0;
    yield_.store(false, std::memory_order_relaxed);
    // A worker that could not hand its items back leaves no consistent cut:
    // the last checkpoint written stays the one to resume from.
    const bool cut =
        !config_.checkpoint_path.empty() && !work_lost_.load(std::memory_order_relaxed);
    if (!config_.checkpoint_path.empty() && !cut) {
      checkpoint_error = "an allocation failure lost queued work; no checkpoint written";
    }
    CheckpointData data;
    if (cut) gather(data);
    if (restart) {
      // A restarted worker beats from 1 again: forget the old readings, so
      // the time spent at the cut never counts as a stall.
      std::fill(watch.stalled.begin(), watch.stalled.end(), 0);
      std::fill(watch.last_beats.begin(), watch.last_beats.end(), 0);
      start_workers();
      next_checkpoint = data.stats.visited + config_.checkpoint_every;
    }
    if (cut) {
      if (write_checkpoint(config_.checkpoint_path, data, config_.fault, checkpoint_error)) {
        checkpoints_written_ += 1;
        checkpoint_error.clear();
      }
    }
    if (!restart) break;
  }

  const auto reason =
      static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed));
  finish_stats(total(), reason);
  stats_.checkpoints_written = resumed_checkpoints_ + checkpoints_written_;
  stats_.checkpoint_error = std::move(checkpoint_error);
  store_.reset();
  if (obs_cells_.active) {
    // Steal totals live in the frontier internals; publish them once per run
    // rather than threading handles through that layer.
    const CompactFrontier::Stats frontier_stats = frontier.stats();
    if (frontier_stats.steals != 0) obs_cells_.steals->add(0, frontier_stats.steals);
    if (frontier_stats.stolen_items != 0) {
      obs_cells_.stolen_items->add(0, frontier_stats.stolen_items);
    }
    obs_cells_.frontier_pending->set(0);
  }

  if (has_violation_) {
    return sim::Violation{best_violation_.description, best_violation_.property,
                          best_violation_.param, best_path_};
  }
  if (stats_.truncated()) {
    // Full partial stats and (for the visited-cap case) a best-effort partial
    // trace. Never an abort, never an empty report.
    return truncated(reason, truncation_path_);
  }
  return std::nullopt;
}

}  // namespace rcons::engine
