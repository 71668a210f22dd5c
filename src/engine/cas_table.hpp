// Lock-free open-addressing fingerprint table: the NodeStore intern index.
// rcons-lint: hot-path
//
// Every slot carries a 32-bit tag, always accessed atomically
// (std::atomic_ref) while inserters run, driving a small state machine:
//
//          CAS (claim)            store-release (publish)
//   EMPTY ------------> CLAIMED ------------------------> PUBLISHED
//            |
//            '--> (CAS failed: another thread owns the slot)
//
// Keys must already be avalanched — every bit of a key depends on every bit
// of what it identifies, as with the node fingerprints (engine/expand.hpp) —
// because a key's home slot is its low word under the array mask, with no
// further mixing.
//
// An insert probes linearly over the tags; the key halves and the payload (a
// 64-bit value and the 32-bit `meta` in the word beside the tag) are plain
// (non-atomic) fields written inside the CLAIMED window and made visible by
// the release-publish of the tag, so readers that acquire-load a PUBLISHED
// tag see a complete slot — no mutex anywhere on the insert path, and TSan
// agrees.
//
// Growth never races an insert. The table does not grow by itself: every
// insert whose fold leaves size() past the growth threshold (5/8 of the
// array) reports it (Found::grow_due), and the table's owner calls grow()
// once no other thread can touch the table. grow() rehashes every key into a
// double-size array and frees the old one. NodeStore grows a one-arena store
// before its next intern; the worker loop grows at a yield, between worker
// runs (engine/parallel_explorer.hpp). So the array stays fixed while
// inserters run, and the 3/8 of it between the threshold and full must hold
// every insert the callers make before they stop. Since every fold past the
// threshold reports, each caller learns of it within kFoldInserts inserts of
// its own, whether or not the caller whose fold crossed acts on it: reserve()
// sizes the headroom from that. A claim probe that finds no EMPTY slot is an
// assertion failure, never a spin.
//
// Probe-length and contention counters accumulate into a caller-owned
// OpStats (one per worker), never into shared cache lines. So do inserts: a
// caller's OpStats holds its inserts until kFoldInserts of them have landed,
// then folds them into the shared `size_` at once, which is where the
// threshold is checked (fold() hands over the remainder; a caller without
// OpStats folds every insert). So `size_` is exact at quiescence and the
// threshold lags by under kFoldInserts inserts per caller; arrays under
// kFoldMinCapacity slots fold every insert. `size_` sits on its own cache
// line, away from the `live_` pointer every probe loads.
//
// Slot arrays of at least kMapBytes are mapped and advised MADV_HUGEPAGE: a
// probe is one random read of an array larger than the caches, and on 4 KiB
// pages most probes also miss the TLB. The advice is a hint; where
// transparent huge pages are off it changes nothing. Nor is a new mapped
// array written before the rehash: its zero pages are already EMPTY slots
// (Slot is a trivial type whose tag is a plain word), so a growth writes the
// slots it fills, not a 4-32 MiB zero-fill first.
#ifndef RCONS_ENGINE_CAS_TABLE_HPP
#define RCONS_ENGINE_CAS_TABLE_HPP

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

class CasTable {
 public:
  // Per-caller (per-worker) operation counters; callers aggregate them into
  // the run's hot-path statistics. Kept out of the table so the hot path
  // never bounces a shared stats cache line between workers.
  struct OpStats {
    std::uint64_t probe_total = 0;       // slots inspected
    std::uint64_t probe_ops = 0;         // operations that probed
    std::uint64_t max_probe = 0;         // longest single probe sequence
    std::uint64_t cas_retries = 0;       // slot claims lost to another thread
    std::uint64_t unfolded_inserts = 0;  // inserts not yet added to size()
  };

  struct Found {
    std::uint64_t value = 0;
    std::uint32_t meta = 0;  // stored beside `value`, read from the same slot
    bool inserted = false;   // true when `key` was not present before
    // This insert's fold left size() past the growth threshold: grow() once
    // no other thread touches the table. Every fold past it reports, not
    // only the one that crossed.
    bool grow_due = false;
  };

  // Pre-sizes for `expected` keys so a run of the anticipated size never
  // grows: the smallest power of two, from kMinCapacity, whose growth
  // threshold (5/8) holds them, up to kMaxPresize. 0 = unknown; start
  // minimal. The explorer's runs pass 1,280 states (2,048 slots) at least,
  // so a typical small check never grows.
  explicit CasTable(std::uint64_t expected = 0) {
    std::size_t capacity = kMinCapacity;
    while (capacity < kMaxPresize && expected > threshold(capacity)) capacity <<= 1;
    live_ = std::make_unique<Array>(capacity);
  }

  // Inserts `key -> (value, meta)` if absent; returns the resident payload
  // (the existing one on a duplicate) and whether an insert happened.
  // Thread-safe and lock-free.
  Found insert(util::U128 key, std::uint64_t value, std::uint32_t meta = 0,
               OpStats* stats = nullptr) {
    return insert_with(key, meta, [value] { return value; }, stats);
  }

  // Like insert, but the value is materialized only when the key turns out
  // to be absent: `make_value()` runs inside the claimed window, after the
  // duplicate check, exactly once per successful insert. This is what lets
  // the NodeStore stage a record copy only for genuinely new states.
  //
  // The CAS arbitrates racing inserters of the same key: the loser re-reads
  // the slot, waits out the claim, and either finds the key (a duplicate) or
  // probes on.
  template <typename F>
  Found insert_with(util::U128 key, std::uint32_t meta, F&& make_value,
                    OpStats* stats = nullptr) {
    const Array& a = *live_;
    std::size_t index = bucket(key, a.mask);
    for (std::uint64_t probes = 1;; ++probes) {
      RCONS_ASSERT_MSG(probes <= a.capacity, "index full: it was not grown in time");
      Slot& slot = a.slots[index];
      std::uint32_t tag = tag_of(slot).load(std::memory_order_acquire);
      while (tag == kEmpty) {
        if (tag_of(slot).compare_exchange_strong(tag, kClaimed, std::memory_order_acquire)) {
          slot.key_lo = key.lo;
          slot.key_hi = key.hi;
          slot.meta = meta;
          slot.value = make_value();
          // Only the claimer publishes: claimed -> published is the sole
          // legal transition out of a slot we won the CAS for.
          RCONS_DCHECK_MSG(tag_of(slot).load(std::memory_order_relaxed) == kClaimed,
                           "publish transition from a tag we do not own");
          tag_of(slot).store(kPublished, std::memory_order_release);
          note_probe(stats, probes);
          return Found{slot.value, meta, true, count_insert(stats)};
        }
        if (stats != nullptr) stats->cas_retries += 1;  // `tag` holds the winner's
      }
      Found found;
      if (settle(slot, tag) == kPublished && read_match(slot, key, found)) {
        note_probe(stats, probes);
        return found;
      }
      index = (index + 1) & a.mask;
    }
  }

  // True when `key` is present. Safe concurrently with inserts.
  bool contains(util::U128 key) const {
    Found ignored;
    return find(key, ignored);
  }

  // Looks `key` up; fills `found` (value and meta) and returns true when
  // present. Safe concurrently with inserts: a claim in flight on the probe
  // path is waited out.
  bool find(util::U128 key, Found& found) const {
    const Array& a = *live_;
    std::size_t index = bucket(key, a.mask);
    for (std::size_t probes = 0; probes < a.capacity; ++probes) {
      const Slot& slot = a.slots[index];
      const std::uint32_t tag = settle(slot, tag_of(slot).load(std::memory_order_acquire));
      if (tag == kEmpty) return false;
      if (read_match(slot, key, found)) return true;
      index = (index + 1) & a.mask;
    }
    return false;
  }

  // Adds the inserts `stats` still holds to size(). Each caller that passes
  // OpStats to insert() calls this once it stops inserting. A fold here
  // reports no crossing: reserve() before the next inserts covers it.
  void fold(OpStats& stats) {
    if (stats.unfolded_inserts == 0) return;
    size_.fetch_add(stats.unfolded_inserts, std::memory_order_relaxed);
    stats.unfolded_inserts = 0;
  }

  // Pulls the home slot of `key` toward the cache, so that an insert or
  // find of `key` issued a little later starts on a cached line. A hint: it
  // changes no state.
  void prefetch(util::U128 key) const {
    __builtin_prefetch(&live_->slots[bucket(key, live_->mask)]);
  }

  // Keys inserted, once every caller folded its inserts. Exact at
  // quiescence; a racy snapshot while inserting.
  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  // Growths so far (table doublings).
  std::uint64_t rehashes() const { return rehashes_; }

  std::size_t capacity() const { return live_->capacity; }

  // Doubles the array: rehashes every key, with its value and meta, into a
  // double-size array and frees the old one. Caller contract: no other
  // thread touches the table. Throws std::bad_alloc, with the table
  // unchanged, when the new array cannot be allocated.
  void grow() {
    auto next = std::make_unique<Array>(live_->capacity * 2);
    for (std::size_t i = 0; i < live_->capacity; ++i) {
      const Slot& slot = live_->slots[i];
      if (tag_of(slot).load(std::memory_order_relaxed) != kPublished) continue;
      std::size_t index = bucket(util::U128{slot.key_lo, slot.key_hi}, next->mask);
      while (tag_of(next->slots[index]).load(std::memory_order_relaxed) != kEmpty) {
        index = (index + 1) & next->mask;
      }
      next->slots[index] = slot;  // tag and all: no other thread reads it
    }
    live_ = std::move(next);
    rehashes_ += 1;
  }

  // Grows until size() is at most the growth threshold and `callers`
  // callers can each insert `inserts_each` keys past the insert that reports
  // a growth to it, on top of the 2 * kFoldInserts it may insert unfolded
  // before its own fold reports (those held when the threshold is crossed,
  // and those up to its next fold), without filling the array. Caller
  // contract as grow()'s, and every caller folded.
  void reserve(std::uint64_t callers, std::uint64_t inserts_each) {
    const std::uint64_t headroom = callers * (2 * kFoldInserts + inserts_each);
    while (size() > threshold(capacity()) || capacity() / 8 * 3 <= headroom) grow();
  }

  // Quiescent iteration for checkpointing: calls `fn(key, value, meta)` for
  // every key. Caller contract: no concurrent inserts (the engine calls this
  // only after every worker joined).
  template <typename F>
  void for_each_published(F&& fn) const {
    for (std::size_t i = 0; i < live_->capacity; ++i) {
      const Slot& slot = live_->slots[i];
      if (tag_of(slot).load(std::memory_order_acquire) == kPublished) {
        fn(util::U128{slot.key_lo, slot.key_hi}, slot.value, slot.meta);
      }
    }
  }

 private:
  // Slot tag states. 32-bit so the CAS is narrow and the slot stays 32 bytes.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kClaimed = 1;
  static constexpr std::uint32_t kPublished = 2;

  static constexpr std::size_t kMinCapacity = 16;  // power of two
  // Pre-sizing cap (slots): beyond this the table grows instead of
  // committing memory up front.
  static constexpr std::size_t kMaxPresize = std::size_t{1} << 22;
  // Slot arrays of at least this many bytes are mapped (see the header).
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;
  // Inserts a caller holds before it folds them into size_, and the array
  // size below which it folds every insert (see the header comment).
  static constexpr std::uint64_t kFoldInserts = 16;
  static constexpr std::size_t kFoldMinCapacity = std::size_t{1} << 12;

  // The growth threshold of an array: 5/8 of its slots.
  static std::uint64_t threshold(std::size_t capacity) { return capacity / 8 * 5; }

  // Trivial, so a zeroed mapping already is an array of EMPTY slots; the
  // tag is a plain word accessed only through tag_of(), except when grow()
  // copies whole slots.
  struct Slot {
    std::uint32_t tag;
    // Plain fields: written inside the CLAIMED window, released by the
    // PUBLISHED tag store, acquired by every tag load that reads them.
    std::uint32_t meta;
    std::uint64_t key_lo;
    std::uint64_t key_hi;
    std::uint64_t value;
  };
  // Two slots per cache line; `meta` rides in the word beside the tag.
  static_assert(sizeof(Slot) == 32, "a slot must stay 32 bytes");
  static_assert(std::is_trivial_v<Slot>, "a zeroed mapping must be a valid slot array");
  static_assert(alignof(Slot) >= std::atomic_ref<std::uint32_t>::required_alignment,
                "the tag must be atomically accessible in place");

  // Every access to a slot's tag is atomic. const: a probe only loads.
  static std::atomic_ref<std::uint32_t> tag_of(const Slot& slot) {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(slot.tag));
  }

  struct Array {
    explicit Array(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          mapped(cap * sizeof(Slot) >= kMapBytes),
          slots(allocate(cap, mapped)) {}
    ~Array() {
      if (mapped) {
        ::munmap(slots, capacity * sizeof(Slot));
      } else {
        delete[] slots;
      }
    }
    Array(const Array&) = delete;
    Array& operator=(const Array&) = delete;

    // A heap array is value-initialized (zeroed); a mapped one is not
    // written at all (see the header comment).
    static Slot* allocate(std::size_t cap, bool map) {
      if (!map) return new Slot[cap]();
      void* memory = ::mmap(nullptr, cap * sizeof(Slot), PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (memory == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
      // Before the slots are touched, so the first touch can fault in huge
      // pages. A hint: its failure leaves the 4 KiB pages.
      (void)::madvise(memory, cap * sizeof(Slot), MADV_HUGEPAGE);
#endif
      return static_cast<Slot*>(memory);
    }

    const std::size_t capacity;
    const std::size_t mask;
    const bool mapped;
    Slot* const slots;
  };

  // Keys are avalanched (see the header comment): the low word is the hash.
  static std::size_t bucket(util::U128 key, std::size_t mask) {
    return static_cast<std::size_t>(key.lo) & mask;
  }

  static void note_probe(OpStats* stats, std::uint64_t probes) {
    if (stats == nullptr) return;
    stats->probe_total += probes;
    stats->probe_ops += 1;
    if (probes > stats->max_probe) stats->max_probe = probes;
  }

  // Waits out a CLAIMED tag (the owner is between its CAS and its publish —
  // a handful of plain stores away).
  static std::uint32_t settle(const Slot& slot, std::uint32_t tag) {
    while (tag == kClaimed) {
      std::this_thread::yield();
      tag = tag_of(slot).load(std::memory_order_acquire);
    }
    return tag;
  }

  // True when the slot, whose tag read PUBLISHED, holds `key`; fills `found`
  // from it.
  static bool read_match(const Slot& slot, util::U128 key, Found& found) {
    if (slot.key_lo != key.lo || slot.key_hi != key.hi) return false;
    found = Found{slot.value, slot.meta, false, false};
    return true;
  }

  // Counts one insert: held in `stats`, or folded with those held into
  // size_. Returns true when this fold left size_ past the growth
  // threshold.
  bool count_insert(OpStats* stats) {
    std::uint64_t inserts = 1;
    if (stats != nullptr) {
      inserts += stats->unfolded_inserts;
      if (inserts < kFoldInserts && live_->capacity >= kFoldMinCapacity) {
        stats->unfolded_inserts = inserts;
        return false;
      }
      stats->unfolded_inserts = 0;
    }
    const std::uint64_t before = size_.fetch_add(inserts, std::memory_order_relaxed);
    return before + inserts > threshold(live_->capacity);
  }

  // Stable while inserters run: only grow() replaces it.
  std::unique_ptr<Array> live_;
  // Bumped once per kFoldInserts inserts of a caller: its own cache line, so
  // the bumps never evict `live_`, which every probe of every worker loads.
  alignas(64) std::atomic<std::uint64_t> size_{0};
  std::uint64_t rehashes_ = 0;
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_CAS_TABLE_HPP
