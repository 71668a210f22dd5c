// Work-stealing frontier for parallel state-space exploration.
// rcons-lint: hot-path
//
// Each worker owns a deque of pending exploration items. A worker pushes the
// children it generates onto the back of its own deque and pops from the back
// (LIFO: depth-first-ish traversal, hot caches, frontier stays shallow). A
// worker whose deque runs dry steals from the *front* of a victim's deque —
// the oldest, shallowest nodes, which tend to root the largest unexplored
// subtrees — and takes a batch (half the victim's items, capped) in one lock
// acquisition so a starving worker doesn't come back for every node.
//
// The hot path is allocation-free and batch-oriented: items are stored
// *inline* (no unique_ptr wrapper, no per-item heap allocation once the
// backing vectors reach steady-state capacity), `push_batch` submits every
// successor of a popped batch under one lock, and `pop_batch` drains work in
// chunks. A successful steal moves the stolen batch straight into the
// thief's output buffer — the thief's own deque is never touched, which both
// removes the historical double-lock (steal used to enqueue into the thief's
// deque and then re-pop it) and the thief-side mutex acquisition entirely.
//
// Items are `CompactWorkItem`s: a view of the node's interned record (the
// payload lives once in the store's arena, engine/node_store.hpp) plus the
// path backlink.
#ifndef RCONS_ENGINE_FRONTIER_HPP
#define RCONS_ENGINE_FRONTIER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "engine/expand.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

// One pending unit of work: a direct view of the node's interned record in
// the NodeStore arena (stable, immutable — see NodeStore::Intern) plus a
// backlink to the event path that first reached it (materialized only for
// trace reporting). Trivially copyable — moving one through the frontier is
// three register-width stores, and expansion decodes the record in place
// with no lock and no copy.
struct CompactWorkItem {
  const typesys::Value* record = nullptr;
  std::uint32_t length = 0;
  const PathLink* tail = nullptr;
};

class CompactFrontier {
 public:
  explicit CompactFrontier(int num_workers) {
    RCONS_ASSERT(num_workers >= 1);
    deques_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      deques_.push_back(std::make_unique<Deque>());
    }
  }

  // Pushes one item onto `worker`'s own deque. Thread-safe (stealers lock the
  // same deque), but `worker` must identify the calling worker.
  void push(int worker, CompactWorkItem item) {
    Deque& deque = *deques_[static_cast<std::size_t>(worker)];
    {
      // rcons-lint: allow(hot-path-no-mutex) single-item push is the slow API; batch paths amortize
      std::lock_guard<std::mutex> lock(deque.mu);
      deque.items.push_back(item);
    }
  }

  // Moves every item of `batch` onto `worker`'s own deque under one lock
  // acquisition — the workers' hand-over path, once per popped batch.
  void push_batch(int worker, std::span<CompactWorkItem> batch) {
    if (batch.empty()) return;
    Deque& deque = *deques_[static_cast<std::size_t>(worker)];
    {
      // One range insert: it grows the vector geometrically (steady-state
      // pushes allocate nothing), and a growth that fails leaves the deque
      // as it was, so a caller that catches the bad_alloc still holds every
      // item of `batch` exactly once.
      // rcons-lint: allow(hot-path-no-mutex) one acquisition per pushed batch, amortized over batch size
      std::lock_guard<std::mutex> lock(deque.mu);
      deque.items.insert(deque.items.end(), batch.begin(), batch.end());
    }
  }

  // Moves up to `max` items into `out` (appended): the newest items of the
  // worker's own deque, or — when it is empty — a batch stolen from a
  // victim's front, delivered directly (the thief's deque is not involved).
  // Consume `out` back-to-front: for a local pop that preserves the LIFO
  // order, and after a steal it serves the most recent of the stolen batch
  // first, exactly as the steal-then-re-pop path used to. Returns the number
  // of items appended; 0 means every deque was (momentarily) empty — the
  // caller decides via its pending-work counter whether that means done.
  // `stole`, when non-null, reports whether the returned items came from a
  // victim's deque rather than the worker's own (observability: the engine
  // emits a "steal" span for these).
  std::size_t pop_batch(int worker, std::vector<CompactWorkItem>& out, std::size_t max,
                        bool* stole = nullptr) {
    RCONS_ASSERT(max >= 1);
    if (stole != nullptr) *stole = false;
    Deque& own = *deques_[static_cast<std::size_t>(worker)];
    {
      // rcons-lint: allow(hot-path-no-mutex) one acquisition per popped batch, amortized over batch size
      std::lock_guard<std::mutex> lock(own.mu);
      const std::size_t avail = own.size();
      if (avail != 0) {
        const std::size_t take = avail < max ? avail : max;
        own.take_back(take, out);
        return take;
      }
    }

    const int n = static_cast<int>(deques_.size());
    for (int offset = 1; offset < n; ++offset) {
      const int victim = (worker + offset) % n;
      Deque& from = *deques_[static_cast<std::size_t>(victim)];
      // rcons-lint: allow(hot-path-no-mutex) steals are rare (own deque empty) and take half a deque per lock
      std::lock_guard<std::mutex> lock(from.mu);
      const std::size_t avail = from.size();
      if (avail == 0) continue;
      // Half the victim's items, capped by the batch cap and by what the
      // caller can accept (everything appended to `out` is handed over).
      std::size_t take = (avail + 1) / 2;
      if (take > kMaxStealBatch) take = kMaxStealBatch;
      if (take > max) take = max;
      from.take_front(take, out);
      if (stole != nullptr) *stole = true;
      steals_.fetch_add(1, std::memory_order_relaxed);
      stolen_items_.fetch_add(take, std::memory_order_relaxed);
      return take;
    }
    // The whole frontier was (momentarily) dry: the steal-pressure signal
    // the workers' adaptive batch sizing watches (see failed_steals()).
    failed_steals_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  // Monotone count of pops that found every deque empty. Workers sample it
  // to detect starvation pressure: when the counter advanced since their
  // last look, peers are starving, so they shrink their pop batches (keeping
  // work visible for steals); while it is quiet they grow them.
  std::uint64_t failed_steals() const {
    return failed_steals_.load(std::memory_order_relaxed);
  }

  // Single-item convenience over pop_batch (tests, simple drains). Unlike
  // the batch path this allocates a one-slot buffer per call; the workers use
  // pop_batch with reusable buffers.
  bool pop(int worker, CompactWorkItem& out) {
    std::vector<CompactWorkItem> scratch;
    if (pop_batch(worker, scratch, 1) == 0) return false;
    out = scratch.back();
    return true;
  }

  // Copies every queued item into `out` (appended) for checkpointing.
  // Caller contract: every worker has joined (no concurrent push/pop) — the
  // per-deque locks are still taken so a racy caller corrupts nothing, but
  // the snapshot is only a consistent cut at quiescence. Items are copied,
  // not drained; the run continues unchanged afterwards.
  void snapshot(std::vector<CompactWorkItem>& out) const {
    for (const std::unique_ptr<Deque>& deque : deques_) {
      // rcons-lint: allow(hot-path-no-mutex) checkpoint snapshot runs only at quiescence (workers joined)
      std::lock_guard<std::mutex> lock(deque->mu);
      for (std::size_t i = deque->head; i < deque->items.size(); ++i) {
        out.push_back(deque->items[i]);
      }
    }
  }

  // Steal counters only: the workers count what they push and pop
  // themselves (engine::Tally::batches, batched_items).
  struct Stats {
    std::uint64_t steals = 0;         // successful batch steals
    std::uint64_t stolen_items = 0;   // items moved by those steals
  };

  Stats stats() const {
    Stats stats;
    stats.steals = steals_.load(std::memory_order_relaxed);
    stats.stolen_items = stolen_items_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  static constexpr std::size_t kMaxStealBatch = 32;

  // Inline item storage with an explicit head index: pushes and back-pops are
  // vector operations; front-steals advance `head` and the dead prefix is
  // compacted amortized-O(1). No per-item allocation anywhere.
  struct alignas(64) Deque {
    // rcons-lint: allow(hot-path-no-mutex) per-deque lock; every acquisition above is batch-amortized
    mutable std::mutex mu;
    std::vector<CompactWorkItem> items;
    std::size_t head = 0;  // live range is items[head, items.size())

    std::size_t size() const { return items.size() - head; }

    // Appends the `take` newest items to `out` in oldest-to-newest order.
    void take_back(std::size_t take, std::vector<CompactWorkItem>& out) {
      const std::size_t begin = items.size() - take;
      for (std::size_t i = begin; i < items.size(); ++i) {
        out.push_back(items[i]);
      }
      items.resize(begin);
      if (items.size() <= head) {
        items.clear();
        head = 0;
      }
    }

    // Appends the `take` oldest items to `out` in oldest-to-newest order.
    void take_front(std::size_t take, std::vector<CompactWorkItem>& out) {
      for (std::size_t i = 0; i < take; ++i) {
        out.push_back(items[head + i]);
      }
      head += take;
      if (head >= items.size()) {
        items.clear();
        head = 0;
      } else if (head >= kCompactThreshold && head * 2 >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  static constexpr std::size_t kCompactThreshold = 64;

  std::vector<std::unique_ptr<Deque>> deques_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> stolen_items_{0};
  std::atomic<std::uint64_t> failed_steals_{0};
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_FRONTIER_HPP
