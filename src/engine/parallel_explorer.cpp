#include "engine/parallel_explorer.hpp"

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

// Per-worker recently-inserted fingerprint cache: direct-mapped, fixed size.
// A hit proves the fingerprint is already interned (everything remembered
// went through the store first), so the table probe can be skipped
// entirely. Duplicate successors cluster in time — siblings reaching the same
// state, diamond interleavings — which is exactly what a small recency cache
// captures.
class DedupCache {
 public:
  DedupCache() : keys_(kEntries), valid_(kEntries, 0) {}

  bool seen(util::U128 key) const {
    const std::size_t index = slot(key);
    return valid_[index] != 0 && keys_[index] == key;
  }

  void remember(util::U128 key) {
    const std::size_t index = slot(key);
    keys_[index] = key;
    valid_[index] = 1;
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{1} << 12;

  static std::size_t slot(util::U128 key) {
    return static_cast<std::size_t>(util::U128Hash{}(key)) & (kEntries - 1);
  }

  std::vector<util::U128> keys_;
  std::vector<std::uint8_t> valid_;
};

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
  shard_bits_ = pick_shard_bits(num_threads_, config_.visited_cap());
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
  // A stop must never leave anyone waiting: release fault-injected stalls
  // and wake the monitor so it can skip straight to its exit check.
  if (config_.fault != nullptr) config_.fault->release_stalls();
  monitor_cv_.notify_all();
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

std::string ParallelExplorer::truncation_description(sim::StopReason reason) const {
  switch (reason) {
    case sim::StopReason::kNone:
      break;
    case sim::StopReason::kVisitedCap:
      return "state space exceeded max_visited; verdict incomplete";
    case sim::StopReason::kDeadline:
      return "time limit exceeded (time_limit_ms=" +
             std::to_string(config_.time_limit_ms) + "); verdict incomplete";
    case sim::StopReason::kMemory:
      return "memory limit exceeded or allocation failed (mem_limit_mb=" +
             std::to_string(config_.mem_limit_mb) + "); verdict incomplete";
    case sim::StopReason::kWatchdog:
      return "watchdog: worker made no progress; verdict incomplete —" +
             watchdog_dump_;
    case sim::StopReason::kForcedStop:
      return "run stopped by external request; verdict incomplete";
  }
  return "run stopped; verdict incomplete";
}

void ParallelExplorer::finish_stats(const Tally& total, sim::StopReason reason) {
  static_cast<Tally&>(stats_) = total;
  stats_.stop_reason = reason;
  if (store_ != nullptr) stats_.rehashes = store_->rehashes();
  if (obs_cells_.active && stats_.rehashes != 0) {
    obs_cells_.store_rehashes->add(0, stats_.rehashes);
  }
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
    // Single shard, single arena: no concurrent inserters (the lock-free
    // table degenerates to plain probes). escalate() re-shards it.
    store_ = std::make_unique<NodeStore>(0);
    codec_ = std::make_unique<NodeCodec>(config_.symmetry_classes);
    orbit_reduction_ = codec_->canonicalizing();
    scratch_node_ = make_root(initial_memory_, initial_processes_, config_.properties);
    const NodeCodec::Encoded encoded = codec_->encode(scratch_node_, encode_scratch_);
    dfs_.encodes += 1;
    if (encoded.permuted) dfs_.canonical_hits += 1;
    const NodeStore::Intern root =
        store_->intern(encoded.fingerprint, encode_scratch_, 0, &dfs_);
    dfs_.store_nodes += 1;
    dfs_.store_bytes += static_cast<std::uint64_t>(root.length) * sizeof(typesys::Value);
    result = dfs(root.record, root.length);
    if (draining_) {
      // The drain never stops early, so the probe's own verdict is the plain
      // visited-cap truncation, traced to the state that tripped the cap.
      RCONS_ASSERT(!result.has_value() && !cut_.empty());
      result = sim::Violation{truncation_description(sim::StopReason::kVisitedCap),
                              sim::PropertyKind::kNone, 0, cut_.front().path};
      draining_ = false;
    }
  } catch (const std::bad_alloc&) {
    // An allocation failure becomes the typed truncated verdict with whatever
    // partial stats accumulated — never an abort — and is never escalated.
    // The event in flight was counted but never classified: reconcile, as
    // the worker loop does.
    dfs_.transitions = dfs_.classified();
    stop_reason_.store(static_cast<int>(sim::StopReason::kMemory), std::memory_order_relaxed);
    result = sim::Violation{truncation_description(sim::StopReason::kMemory),
                            sim::PropertyKind::kNone, 0, path_};
    cut_.clear();
    draining_ = false;
  }

  dcheck_transitions_identity(dfs_);
  obs_cells_.flush(0, dfs_, dfs_flushed_);
  finish_stats(dfs_, static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed)));
  codec_.reset();
  if (cut_.empty()) store_.reset();  // release the arena; stats survive in stats_
  return result;
}

std::optional<sim::Violation> ParallelExplorer::dfs_poll() {
  dfs_next_poll_ = dfs_.transitions + kPollTransitions;
  dcheck_transitions_identity(dfs_);
  obs_cells_.flush(0, dfs_, dfs_flushed_);
  if (draining_ || !limits_.armed()) return std::nullopt;
  const sim::StopReason reason = limits_.sample();
  if (reason == sim::StopReason::kNone) return std::nullopt;
  request_stop(reason);
  return sim::Violation{truncation_description(reason), sim::PropertyKind::kNone, 0, path_};
}

std::optional<sim::Violation> ParallelExplorer::dfs(const typesys::Value* record,
                                                    std::size_t size) {
  // The parent is its interned record, read in place from the store arena —
  // no Memory/Process clones, no per-depth record copies. Between successors
  // the one scratch node diverges from the record only where the previous
  // event touched it, so restore() refills just that (one program decode per
  // successor instead of n), and per-process successors patch-encode by
  // copying the n-1 unchanged blocks from the parent record.
  const std::size_t depth = path_.size();
  while (events_pool_.size() <= depth) events_pool_.emplace_back();
  std::vector<Event>& events = events_pool_[depth];

  codec_->decode(record, size, scratch_node_);
  // Stabilizer orbits: enumerate one representative event per orbit of
  // interchangeable processes; skipped siblings still count as transitions
  // (edges of the unreduced graph) plus orbit_skipped. The mask is consumed
  // by enumerate_events here, before recursion can overwrite the buffer.
  const std::uint64_t orbit_before = dfs_.orbit_skipped;
  const int orbit_count = orbit_reduction_ ? codec_->orbit_skip_mask(record, orbit_skip_) : 0;
  enumerate_events(scratch_node_, config_, events, orbit_count > 0 ? &orbit_skip_ : nullptr,
                   &dfs_.orbit_skipped);
  dfs_.transitions += dfs_.orbit_skipped - orbit_before;
  if (is_terminal(scratch_node_)) dfs_.terminal_states += 1;
  // Codec header layout: record[1] counts the distinct outputs so far.
  const auto parent_decisions = static_cast<std::size_t>(record[1]);

  int dirty = NodeCodec::kDirtyNone;
  for (const Event& event : events) {
    // Poll before counting the event, so a stop leaves no transition
    // unclassified.
    if (dfs_.transitions >= dfs_next_poll_) {
      if (auto truncated = dfs_poll()) return truncated;
    }
    path_.push_back(event);
    dfs_.transitions += 1;
    if (dirty != NodeCodec::kDirtyNone) codec_->restore(record, size, scratch_node_, dirty);
    dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
    if (auto broken = apply_event(scratch_node_, event, config_)) {
      dfs_.violation_edges += 1;
      if (draining_) {
        offer_violation(path_, std::move(*broken));  // a candidate for escalate()
        path_.pop_back();
        continue;
      }
      sim::Violation violation{std::move(broken->description), broken->property,
                               broken->param, path_};
      path_.pop_back();
      return violation;
    }
    if (scratch_node_.decisions.size() > parent_decisions) dfs_.decisions += 1;
    const NodeCodec::Encoded encoded =
        event.kind == Event::Kind::kCrashAll
            ? codec_->encode(scratch_node_, encode_scratch_)
            : codec_->encode_successor(record, size, scratch_node_, event.process,
                                       encode_scratch_);
    dfs_.encodes += 1;
    if (encoded.permuted) dfs_.canonical_hits += 1;
    const NodeStore::Intern interned =
        store_->intern(encoded.fingerprint, encode_scratch_, 0, &dfs_);
    if (interned.inserted) {
      dfs_.store_nodes += 1;
      dfs_.store_bytes += static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);
      dfs_.visited += 1;
      if (dfs_.visited > dfs_cap_) {
        if (!draining_) {
          request_stop(sim::StopReason::kVisitedCap);
          if (dfs_cap_ == config_.visited_cap()) {
            sim::Violation violation{truncation_description(sim::StopReason::kVisitedCap),
                                     sim::PropertyKind::kNone, 0, path_};
            path_.pop_back();
            return violation;
          }
          // A probe: finish the stack for escalate(). The drain is bounded by
          // the events left on the stack and a cut is only useful whole, so
          // the limits are not polled until it ends.
          draining_ = true;
        }
        cut_.push_back(Deferred{interned.record, interned.length, path_});
      } else {
        if (auto violation = dfs(interned.record, interned.length)) {
          path_.pop_back();
          return violation;
        }
        // Recursion re-pointed the codec's captured layout at descendant
        // records; a full re-decode (restore with kDirtyAll) re-captures this
        // record's layout before the next sibling.
        dirty = NodeCodec::kDirtyAll;
      }
    } else {
      dfs_.duplicates += 1;
    }
    path_.pop_back();
  }
  return std::nullopt;
}

// --- pause barrier ----------------------------------------------------------

bool ParallelExplorer::pause_workers() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = true;
    pause_flag_.store(true, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(pause_mu_);
  // Grace period: a worker wedged by fault injection (or a real stall — the
  // very condition the watchdog reports) must not deadlock checkpointing.
  const auto grace = std::chrono::milliseconds(
      config_.sentinel_interval_ms * 100 < 5000 ? 5000
                                                : config_.sentinel_interval_ms * 100);
  const bool parked = parked_cv_.wait_for(lock, grace, [&] {
    return parked_ == live_workers_ || stop_.load(std::memory_order_relaxed);
  });
  if (!parked || stop_.load(std::memory_order_relaxed)) {
    pause_requested_ = false;
    pause_flag_.store(false, std::memory_order_relaxed);
    lock.unlock();
    pause_cv_.notify_all();
    return false;
  }
  // Barrier postcondition: the predicate can only have passed via the parked
  // count (the stop branch returned above), and parked workers cannot leave
  // while we hold pause_mu_ with pause_requested_ still set.
  RCONS_DCHECK_MSG(parked_ == live_workers_ && pause_requested_,
                   "pause barrier reported success without full quiescence");
  return true;  // every live worker is parked; frontier + store quiescent
}

void ParallelExplorer::resume_workers() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = false;
    pause_flag_.store(false, std::memory_order_relaxed);
  }
  pause_cv_.notify_all();
}

void ParallelExplorer::worker_pause_point() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  if (!pause_requested_) return;  // raced with resume (or an aborted pause)
  parked_ += 1;
  parked_cv_.notify_all();
  pause_cv_.wait(lock, [&] { return !pause_requested_; });
  parked_ -= 1;
}

void ParallelExplorer::worker_exit(int id) {
  heartbeats_[static_cast<std::size_t>(id)].beats.store(kHeartbeatExited,
                                                        std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    live_workers_ -= 1;
  }
  // A pause in flight may be waiting on this worker's park; its exit
  // satisfies the barrier the same way.
  parked_cv_.notify_all();
}

// --- monitor (watchdog, periodic checkpoints) ----------------------------------

bool ParallelExplorer::monitor_needed() const {
  return config_.watchdog_stall_intervals > 0 ||
         (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0);
}

void ParallelExplorer::monitor_loop(const std::function<bool()>& write_snapshot) {
  const std::uint64_t ckpt_every =
      write_snapshot != nullptr ? config_.checkpoint_every : 0;

  std::vector<std::uint64_t> last_beats(static_cast<std::size_t>(num_threads_), 0);
  std::vector<int> stalled(static_cast<std::size_t>(num_threads_), 0);
  std::uint64_t last_ckpt_visited = base_.visited;

  std::unique_lock<std::mutex> lock(monitor_mu_);
  for (;;) {
    monitor_cv_.wait_for(lock,
                         std::chrono::milliseconds(config_.sentinel_interval_ms),
                         [&] { return monitor_exit_; });
    if (monitor_exit_) return;
    if (stop_.load(std::memory_order_relaxed)) continue;  // wait for the join

    if (config_.watchdog_stall_intervals > 0) {
      std::string dump;
      for (int i = 0; i < num_threads_; ++i) {
        const auto slot = static_cast<std::size_t>(i);
        const std::uint64_t beats = heartbeats_[slot].beats.load(std::memory_order_relaxed);
        if (beats == kHeartbeatExited) {
          stalled[slot] = 0;
          continue;
        }
        if (beats == last_beats[slot]) {
          stalled[slot] += 1;
        } else {
          stalled[slot] = 0;
          last_beats[slot] = beats;
        }
        if (stalled[slot] >= config_.watchdog_stall_intervals) {
          dump += " worker " + std::to_string(i) + ": no progress for " +
                  std::to_string(stalled[slot]) + " intervals (heartbeat=" +
                  std::to_string(beats) + ")";
        }
      }
      if (!dump.empty()) {
        {
          std::lock_guard<std::mutex> vlock(violation_mu_);
          watchdog_dump_ = dump;
        }
        request_stop(sim::StopReason::kWatchdog);
        continue;
      }
    }
    if (ckpt_every != 0) {
      const std::uint64_t visited = visited_count_.load(std::memory_order_relaxed);
      if (visited >= last_ckpt_visited + ckpt_every) {
        // The snapshot pauses the workers itself; drop monitor_mu_ so
        // request_stop (from a worker hitting the cap meanwhile) never
        // queues behind the pause.
        lock.unlock();
        const bool written = write_snapshot();
        lock.lock();
        if (written) last_ckpt_visited = visited;
      }
    }
  }
}

void ParallelExplorer::stop_monitor(std::thread& monitor) {
  if (!monitor.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_exit_ = true;
  }
  monitor_cv_.notify_all();
  monitor.join();
}

void ParallelExplorer::worker(int id, CompactFrontier& frontier, PathArena& arena,
                              std::atomic<std::uint64_t>& pending, Tally& local) {
  // Per-worker reusable state: one scratch node (restored from the parent's
  // record between successors — no Node copies), the record/event buffers,
  // the orbit mask, the popped and successor batches, and the
  // recently-inserted cache. Zero allocations per successor after warmup.
  NodeCodec codec(config_.symmetry_classes);
  Node parent = make_root(initial_memory_, initial_processes_, config_.properties);
  std::vector<Event> events;
  std::vector<typesys::Value> child_record;
  std::vector<std::uint8_t> orbit_skip;
  std::vector<CompactWorkItem> batch;
  std::vector<CompactWorkItem> successors;
  DedupCache cache;
  const bool orbits = codec.canonicalizing();
  NodeStore& store = *store_;

  // Observability: metrics flush at batch boundaries (obs_cells_ inactive =
  // one predicted branch per batch), spans on the tracer's worker lane.
  obs::Tracer* const tracer = config_.obs.tracer;
  const std::size_t obs_lane = 1 + static_cast<std::size_t>(id);
  const std::size_t trace_lane = tracer != nullptr ? tracer->worker_lane(id) : 0;
  if (tracer != nullptr) {
    tracer->set_lane_name(trace_lane, "worker-" + std::to_string(id));
  }
  Tally flushed;
  // Workers flush only at event-classification boundaries, where the
  // conservation law must hold exactly. The pending gauge is last-write-wins,
  // so any worker's relaxed sample is equally good.
  auto flush_obs = [&] {
    dcheck_transitions_identity(local);
    obs_cells_.flush(obs_lane, local, flushed);
    obs_cells_.frontier_pending->set(
        static_cast<std::int64_t>(pending.load(std::memory_order_relaxed)));
  };
  const std::uint64_t worker_begin = tracer != nullptr ? tracer->now_us() : 0;
  std::uint64_t batch_begin = 0;
  std::size_t pop_batch = kInitPopBatch;
  std::uint64_t steal_mark = frontier.failed_steals();
  Heartbeat& heartbeat = heartbeats_[static_cast<std::size_t>(id)];
  std::uint64_t beats = 0;
  FaultPlan* const fault = config_.fault;
  std::uint64_t next_poll = limits_.armed() ? kPollTransitions : kNever;

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
        // Cooperative stop: exit immediately. Queued work stays queued (and
        // pending-counted), so a checkpoint taken after the join still sees
        // every outstanding item; every worker leaves through this check, so
        // pending never reaching 0 cannot hang anyone.
        if (stop_.load(std::memory_order_relaxed)) break;
        if (pause_flag_.load(std::memory_order_relaxed)) {
          worker_pause_point();
          continue;
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
      } else if (stop_.load(std::memory_order_relaxed) ||
                 pause_flag_.load(std::memory_order_relaxed)) {
        // Hand the unprocessed remainder back (still pending-counted) so a
        // pause or post-stop checkpoint sees every outstanding item; the
        // next iteration parks or exits.
        frontier.push_batch(id, batch);
        batch.clear();
        continue;
      }
      const CompactWorkItem item = batch.back();
      batch.pop_back();

      // The item's record view reads straight from the store arena — no
      // fetch lock, no copy (see NodeStore::Intern). decode() also captures
      // the record's layout for the restore/patch-encode fast paths below.
      codec.decode(item.record, item.length, parent);
      // Stabilizer orbits: enumerate one representative event per orbit of
      // interchangeable processes; the skipped siblings still count as
      // transitions (they are edges of the unreduced graph) plus
      // orbit_skipped.
      const std::uint64_t orbit_before = local.orbit_skipped;
      const int orbit_count =
          orbits ? codec.orbit_skip_mask(item.record, orbit_skip) : 0;
      enumerate_events(parent, config_, events,
                       orbit_count > 0 ? &orbit_skip : nullptr,
                       &local.orbit_skipped);
      local.transitions += local.orbit_skipped - orbit_before;
      if (is_terminal(parent)) local.terminal_states += 1;
      successors.clear();
      bool incomplete = false;
      // Codec header: record[1] counts the distinct outputs so far.
      const auto parent_decisions = static_cast<std::size_t>(item.record[1]);

      // Between successors the scratch node diverges from the parent record
      // only where the previous event touched it: the shared flat fields
      // plus exactly one process (or all of them after a crash-all). restore
      // re-decodes just that — one program decode per successor instead of n.
      int dirty = NodeCodec::kDirtyNone;
      for (const Event& event : events) {
        if (stop_.load(std::memory_order_relaxed)) {
          incomplete = true;
          break;
        }
        local.transitions += 1;
        if (dirty != NodeCodec::kDirtyNone) {
          codec.restore(item.record, item.length, parent, dirty);
        }
        dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll
                                                     : event.process;
        if (auto broken = apply_event(parent, event, config_)) {
          local.violation_edges += 1;
          std::vector<Event> path = materialize_path(item.tail);
          path.push_back(event);
          offer_violation(std::move(path), std::move(*broken));
          continue;  // a violating edge is never expanded further
        }
        if (parent.decisions.size() > parent_decisions) local.decisions += 1;
        // Per-process events leave n-1 blocks byte-identical to the parent
        // record: patch-encode copies them instead of re-encoding programs.
        const NodeCodec::Encoded encoded =
            event.kind == Event::Kind::kCrashAll
                ? codec.encode(parent, child_record)
                : codec.encode_successor(item.record, item.length, parent,
                                         event.process, child_record);
        local.encodes += 1;
        if (encoded.permuted) local.canonical_hits += 1;
        local.cache_probes += 1;
        if (cache.seen(encoded.fingerprint)) {
          local.cache_hits += 1;
          local.duplicates += 1;
          continue;  // guaranteed duplicate: skip the table probe entirely
        }
        if (fault != nullptr) fault->hit(FaultPlan::Site::kIntern);
        const NodeStore::Intern interned =
            store.intern(encoded.fingerprint, child_record, id, &local);
        cache.remember(encoded.fingerprint);
        if (!interned.inserted) {
          local.duplicates += 1;
          continue;
        }
        local.store_nodes += 1;
        local.store_bytes +=
            static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);

        const std::uint64_t count =
            visited_count_.fetch_add(1, std::memory_order_relaxed) + 1;
        local.visited += 1;
        if (count > config_.visited_cap()) {
          record_truncation(item.tail, event);
          incomplete = true;
          break;
        }
        successors.push_back(CompactWorkItem{interned.record, interned.length,
                                             arena.add(event, item.tail)});
      }

      if (!successors.empty()) {
        local.batches += 1;
        local.batched_items += successors.size();
        if (obs_cells_.active) {
          obs_cells_.batch_size->record(obs_lane, successors.size());
        }
        pending.fetch_add(successors.size(), std::memory_order_release);
        frontier.push_batch(id, successors);
        successors.clear();
      }
      if (incomplete) {
        // A stop interrupted this expansion: re-queue the item WITHOUT
        // releasing its pending slot. A resumed run re-expands it and the
        // already-interned successors dedup away, so nothing is lost and
        // visited counts stay exact.
        frontier.push(id, item);
      } else {
        pending.fetch_sub(1, std::memory_order_release);
      }
      if (tracer != nullptr && batch.empty()) {
        tracer->complete(trace_lane, "expand_batch", batch_begin, tracer->now_us());
      }
    }
  } catch (const std::bad_alloc&) {
    // An allocation failed mid-event (real exhaustion or an injected alloc
    // fault): the in-flight event was already tallied as a transition but its
    // classification never completed. Drop the half-counted transition so
    // the conservation law stays exact at the flush/exit DCHECK below — the
    // run is truncated (kMemory) either way, and an unclassified transition
    // would overstate the explored edge count.
    // (The deviation is the one unclassified event, or orbit skips recorded
    // by an interrupted expansion before their transition credit landed;
    // reconciling to the classified sum restores the law in both
    // directions.)
    local.transitions = local.classified();
    request_stop(sim::StopReason::kMemory);
  }

  dcheck_transitions_identity(local);  // holds even when obs flushing is off
  if (obs_cells_.active) flush_obs();
  if (tracer != nullptr) {
    tracer->complete(trace_lane, "worker", worker_begin, tracer->now_us());
  }
  worker_exit(id);
}

// --- worker loop ---------------------------------------------------------------

std::optional<sim::Violation> ParallelExplorer::run() {
  reset_run();
  return explore();
}

std::optional<sim::Violation> ParallelExplorer::escalate() {
  RCONS_ASSERT_MSG(can_escalate(), "escalate() continues a run_dfs() stopped at its probe cap");
  RCONS_ASSERT_MSG(config_.checkpoint_path.empty() && config_.resume == nullptr,
                   "an escalated probe cannot be combined with checkpoint or resume");
  // The DFS's counts are part of this run's totals (its obs counters are
  // already in the registry, so nothing is flushed for them here).
  base_ = dfs_;
  return explore();
}

std::optional<sim::Violation> ParallelExplorer::explore() {
  resolve_threads();
  stop_.store(false, std::memory_order_relaxed);
  stop_reason_.store(static_cast<int>(sim::StopReason::kNone), std::memory_order_relaxed);
  truncated_.store(false, std::memory_order_relaxed);
  checkpoints_written_.store(0, std::memory_order_relaxed);
  resumed_checkpoints_ = 0;
  heartbeats_ = std::make_unique<Heartbeat[]>(static_cast<std::size_t>(num_threads_));
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = false;
    parked_ = 0;
    live_workers_ = num_threads_;
  }
  pause_flag_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_exit_ = false;
  }
  if (obs_cells_.active) {
    obs_cells_.visited_cap->set(static_cast<std::int64_t>(config_.visited_cap()));
    obs_cells_.num_threads->set(num_threads_);
  }

  CompactFrontier frontier(num_threads_);
  std::vector<PathArena> arenas(static_cast<std::size_t>(num_threads_));
  std::atomic<std::uint64_t> pending{0};
  std::vector<Tally> tallies(static_cast<std::size_t>(num_threads_));
  auto seed = [&](std::size_t i, const typesys::Value* record, std::uint32_t length,
                  const PathLink* tail) {
    pending.fetch_add(1, std::memory_order_release);
    frontier.push(static_cast<int>(i % static_cast<std::size_t>(num_threads_)),
                  CompactWorkItem{record, length, tail});
  };

  // The root is always encoded — a resume checks its fingerprint against the
  // checkpoint's (same initial memory + programs) before trusting the file.
  NodeCodec codec(config_.symmetry_classes);
  Node root_node = make_root(initial_memory_, initial_processes_, config_.properties);
  std::vector<typesys::Value> root_record;
  const NodeCodec::Encoded root_encoded = codec.encode(root_node, root_record);

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
    store_ = std::make_unique<NodeStore>(shard_bits_, 0, num_threads_);
    base_ = ckpt.stats;
    resumed_checkpoints_ = ckpt.stats.checkpoints_written;
    // The file carries no store counts: the records re-interned here are
    // the store's, so store_nodes == visited + 1 holds on as before the cut.
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
    store_->reshard(shard_bits_, num_threads_);
    // Arena paths from the root, so violations below a deferred state report
    // full schedules. The cut is small (tens of states at depth ~20 on Sn(5)
    // n=5 with a 200k probe), so each path gets its own chain.
    for (std::size_t i = 0; i < cut_.size(); ++i) {
      const PathLink* tail = nullptr;
      for (const Event& event : cut_[i].path) tail = arenas[0].add(event, tail);
      seed(i, cut_[i].record, cut_[i].length, tail);
    }
    cut_.clear();
  } else {
    store_ = std::make_unique<NodeStore>(shard_bits_, 0, num_threads_);
    const NodeStore::Intern interned = store_->intern(root_encoded.fingerprint, root_record);
    // The coordinator's root intern, flushed on lane 0, so store.* totals
    // match the store exactly (the workers account everything else live).
    base_.encodes = 1;
    base_.canonical_hits = root_encoded.permuted ? 1 : 0;
    base_.store_nodes = 1;
    base_.store_bytes = static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);
    Tally unflushed;
    obs_cells_.flush(0, base_, unflushed);
    seed(0, interned.record, interned.length, nullptr);
  }
  visited_count_.store(base_.visited, std::memory_order_relaxed);

  auto total = [&] {
    Tally sum = base_;
    for (const Tally& local : tallies) sum += local;
    return sum;
  };
  const std::uint64_t config_hash = checkpoint_config_hash(config_);

  // Fills a checkpoint from the current state. Caller contract: the workers
  // are parked at the pause barrier or have all joined (frontier + store
  // quiescent, tallies stable).
  auto gather = [&](CheckpointData& data) {
    data.config_hash = config_hash;
    data.label = config_.checkpoint_label;
    data.root_fp = root_encoded.fingerprint;
    static_cast<Tally&>(data.stats) = total();
    data.stats.checkpoints_written =
        resumed_checkpoints_ + checkpoints_written_.load(std::memory_order_relaxed);
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
    // Quiescence invariant (PR 8): with every worker parked or joined, each
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

  // Periodic snapshot (monitor thread): park everyone, gather, resume, then
  // write outside the barrier so a slow disk never blocks exploration.
  auto write_snapshot = [&]() -> bool {
    if (!pause_workers()) return false;  // stop in flight or a wedged worker
    CheckpointData data;
    gather(data);
    resume_workers();
    std::string error;
    if (!write_checkpoint(config_.checkpoint_path, data, config_.fault, error)) {
      return false;
    }
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  std::thread monitor;
  if (monitor_needed()) {
    std::function<bool()> snapshot_fn;
    if (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0) {
      snapshot_fn = write_snapshot;
    }
    monitor = std::thread([this, snapshot_fn] { monitor_loop(snapshot_fn); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads_));
  for (int id = 0; id < num_threads_; ++id) {
    const auto slot = static_cast<std::size_t>(id);
    threads.emplace_back([this, id, slot, &frontier, &arenas, &pending, &tallies] {
      worker(id, frontier, arenas[slot], pending, tallies[slot]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop_monitor(monitor);

  // Final checkpoint at exit — complete, truncated, or violating alike. The
  // workers joined, so the cut is trivially consistent (no pause needed).
  if (!config_.checkpoint_path.empty()) {
    CheckpointData data;
    gather(data);
    std::string error;
    if (write_checkpoint(config_.checkpoint_path, data, config_.fault, error)) {
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const auto reason =
      static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed));
  finish_stats(total(), reason);
  stats_.checkpoints_written =
      resumed_checkpoints_ + checkpoints_written_.load(std::memory_order_relaxed);
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
    // Typed truncated verdict: full partial stats, a reason-specific
    // description, and (for the visited-cap case) a best-effort partial
    // trace. Never an abort, never an empty report.
    return sim::Violation{truncation_description(reason), sim::PropertyKind::kNone, 0,
                          truncation_path_};
  }
  return std::nullopt;
}

}  // namespace rcons::engine
