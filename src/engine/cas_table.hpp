// Lock-free open-addressing fingerprint table: the NodeStore intern index.
// rcons-lint: hot-path
//
// Every slot carries a 32-bit tag, always accessed atomically
// (std::atomic_ref), driving a small state machine:
//
//          CAS (claim)            store-release (publish)
//   EMPTY ------------> CLAIMED ------------------------> PUBLISHED
//            |                |
//            |                '--> TOMBSTONE   (claim landed in a freshly
//            '--> (CAS failed:     sealed array; the slot is dead and
//                 another thread   probes walk past it)
//                 owns the slot)
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
// Growth is epoch-based and cooperative. When occupancy crosses the load
// threshold, one thread (under a mutex — growth is the cold path, a handful
// of events per run) allocates a double-size array, marks the current one
// `sealed`, and publishes the new array as live. Live inserts then each
// migrate one fixed *stripe* of the sealed array's slots per operation —
// workers share the sweep via an atomic stripe cursor instead of any thread
// stopping the world. Sealed arrays stay readable (their probe chains are
// never broken) until every stripe is migrated; then the array is detached
// from lookups.
//
// Memory of detached arrays. An array under kMapBytes (1 MiB) lives on the
// heap and is retired to the table until destruction: the geometric series
// of small arrays stays below 1 MiB in total. A larger array is mapped with
// mmap, and the thread that detaches it returns its pages with
// madvise(MADV_DONTNEED); the mapping itself is kept until destruction, so a
// reader that loaded the array before the detach never touches unmapped
// memory. Its reads of a released page see zeros: the kEmpty tag (a probe
// ends, having found nothing) or an all-zero key with value 0. The latter is
// why a key match re-reads the tag after the payload (`read_match`): a slot
// still PUBLISHED then was read whole, a zeroed one is skipped. Nothing is
// lost by skipping — the sweep finished before the detach, so every key of
// the released array sits in a newer array with the same value and meta,
// and every walk ends in the newest array it can reach (insert's claim walk,
// find's retry when the live array moved under it). A late claimer (one
// that loaded the array before it sealed) may still CAS a slot of a released
// array; it sees `sealed`, tombstones the slot and retries, so at most a few
// pages are faulted back in.
//
// The seal handshake is the subtle part. A claimer CASes EMPTY→CLAIMED and
// then checks `sealed`; the grower stores `sealed = true` before publishing
// the new live array. Both sides use seq_cst, so for any claim that lands in
// an array a later inserter reaches *as an old array*, the claim is ordered
// before that inserter's tag load — the probe sees at least CLAIMED and
// waits for the claim to resolve (PUBLISHED or TOMBSTONE). A claimer that
// observes `sealed` after winning the CAS reverts its slot to TOMBSTONE and
// retries in the newer array, so no insert is ever lost at an epoch
// boundary and no key is ever published twice.
//
// Liveness at the threshold: while a sweep is pending the threshold growth
// (5/8 of the live array) defers, so a stalled migrator (e.g. descheduled on
// an oversubscribed box, holding a claimed stripe) keeps the sweep pending
// while inserts keep landing. Past a second threshold (7/8) the growth
// happens anyway, stacking a second epoch on the pending one, so probes stay
// short instead of walking an almost full array. A probe that still
// inspects every slot without finding EMPTY reports the array full, and the
// inserter *forces* a growth the same way instead of spinning on a table
// that can never accept its claim.
//
// Probe-length and contention counters accumulate into a caller-owned
// OpStats (one per worker), never into shared cache lines. So do inserts: a
// caller's OpStats holds its inserts until kFoldInserts of them have landed,
// then folds them into the shared `size_` at once and checks the growth
// threshold (fold() hands over the remainder; a caller without OpStats folds
// every insert). So `size_` is exact at quiescence and the threshold lags by
// under kFoldInserts inserts per caller — far inside the 3/8 of an array
// between the threshold and full, since arrays under kFoldMinCapacity slots
// fold every insert. `size_` sits on its own cache line, away from the
// `live_` pointer every probe loads.
//
// Mapped arrays are advised MADV_HUGEPAGE: a probe is one random read of an
// array larger than the caches, and on 4 KiB pages most probes also miss
// the TLB. The advice is a hint; where transparent huge pages are off it
// changes nothing. Nor is a new mapped array written: its zero pages are
// already EMPTY slots (Slot is a trivial type whose tag is a plain word), so
// a growth costs the grower one mmap under growth_mu_, not a 4-32 MiB
// zero-fill that every inserter folding its count would wait out, and the
// pages fault in as inserts and the migration sweep first touch them.
#ifndef RCONS_ENGINE_CAS_TABLE_HPP
#define RCONS_ENGINE_CAS_TABLE_HPP

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

class CasTable {
 public:
  // Per-caller (per-worker) operation counters; callers aggregate them into
  // the run's hot-path statistics. Kept out of the table so the hot path
  // never bounces a shared stats cache line between workers.
  struct OpStats {
    std::uint64_t probe_total = 0;        // slots inspected
    std::uint64_t probe_ops = 0;          // operations that probed
    std::uint64_t max_probe = 0;          // longest single probe sequence
    std::uint64_t cas_retries = 0;        // slot claims lost to another thread
    std::uint64_t migration_stripes = 0;  // growth stripes this caller migrated
    std::uint64_t unfolded_inserts = 0;   // inserts not yet added to size()
  };

  struct Found {
    std::uint64_t value = 0;
    std::uint32_t meta = 0;  // stored beside `value`, read from the same slot
    bool inserted = false;   // true when `key` was not present before
  };

  // Pre-sizes for `expected` keys so a run of the anticipated size never
  // grows. 0 = unknown; start minimal and grow cooperatively.
  explicit CasTable(std::uint64_t expected = 0) {
    std::size_t capacity = kMinCapacity;
    while (capacity < kMaxPresize && expected > capacity / 8 * 5) capacity <<= 1;
    auto first = std::make_unique<Array>(capacity);
    retained_bytes_.store(first->bytes(), std::memory_order_relaxed);
    live_.store(first.get(), std::memory_order_release);
    arrays_.push_back(std::move(first));
  }

  // Inserts `key -> (value, meta)` if absent; returns the resident payload
  // (the existing one on a duplicate) and whether an insert happened.
  // Thread-safe, lock-free except inside the (rare) growth allocation.
  Found insert(util::U128 key, std::uint64_t value, std::uint32_t meta = 0,
               OpStats* stats = nullptr) {
    return insert_with(key, meta, [value] { return value; }, stats);
  }

  // Like insert, but the value is materialized only when the key turns out
  // to be absent: `make_value()` runs inside the claimed window, after the
  // duplicate check, exactly once per successful insert. This is what lets
  // the NodeStore stage a record copy only for genuinely new states.
  template <typename F>
  Found insert_with(util::U128 key, std::uint32_t meta, F&& make_value,
                    OpStats* stats = nullptr) {
    for (;;) {
      Array* head = live_.load(std::memory_order_acquire);
      if (head->prev.load(std::memory_order_acquire) != nullptr) {
        help_migrate(stats);
        head = live_.load(std::memory_order_acquire);
      }
      // Duplicate check walks the sealed arrays first (oldest data), then the
      // claim walk settles the race in the live array.
      for (Array* old = head->prev.load(std::memory_order_acquire); old != nullptr;
           old = old->prev.load(std::memory_order_acquire)) {
        Found existing;
        if (probe_published(*old, key, existing, stats)) return existing;
      }
      Claim claim = claim_or_find(*head, key, meta, make_value, stats);
      if (claim.outcome == Claim::kFound) return claim.found;
      if (claim.outcome == Claim::kInserted) {
        count_insert(head, stats);
        claim.found.inserted = true;
        return claim.found;
      }
      if (claim.outcome == Claim::kFull) {
        // The live array has no EMPTY slot left (a stalled migrator blocked
        // the threshold growth while inserts kept landing). Growth cannot
        // wait for a successful claim — no claim can succeed — so force it.
        force_grow(head);
        continue;
      }
      // Claim::kSealed: the array was sealed under us; wait for the grower to
      // publish the replacement, then retry the whole protocol there.
      while (live_.load(std::memory_order_acquire) == head) std::this_thread::yield();
    }
  }

  // True when `key` is present. Safe concurrently with inserts.
  bool contains(util::U128 key) const {
    Found ignored;
    return find(key, ignored);
  }

  // Looks `key` up; fills `found` (value and meta) and returns true when
  // present. Walks the sealed arrays first and the live one last, as an
  // insert does: a key whose sealed array was swept and released under the
  // walk was carried into the live array before the release. Should a
  // growth replace the live array meanwhile, the key may have been carried
  // past it, so the walk starts again.
  bool find(util::U128 key, Found& found) const {
    for (;;) {
      Array* head = live_.load(std::memory_order_acquire);
      for (Array* old = head->prev.load(std::memory_order_acquire); old != nullptr;
           old = old->prev.load(std::memory_order_acquire)) {
        if (probe_published(*old, key, found, nullptr)) return true;
      }
      if (probe_published(*head, key, found, nullptr)) return true;
      if (live_.load(std::memory_order_acquire) == head) return false;
    }
  }

  // Adds the inserts `stats` still holds to size(). Each caller that passes
  // OpStats to insert() calls this once it stops inserting.
  void fold(OpStats& stats) {
    if (stats.unfolded_inserts == 0) return;
    size_.fetch_add(stats.unfolded_inserts, std::memory_order_relaxed);
    stats.unfolded_inserts = 0;
  }

  // Pulls the home slot of `key` in the live array toward the cache, so that
  // an insert or find of `key` issued a little later starts on a cached
  // line. A hint: it changes no state, and the live array stays mapped.
  void prefetch(util::U128 key) const {
    const Array* head = live_.load(std::memory_order_acquire);
    __builtin_prefetch(&head->slots[bucket(key, head->mask)]);
  }

  // Keys inserted, once every caller folded its inserts. Exact at
  // quiescence; a racy snapshot while inserting.
  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  // Growth epochs started (table doublings).
  std::uint64_t rehashes() const { return rehashes_.load(std::memory_order_relaxed); }

  // True while a sealed array still has unmigrated stripes.
  bool migrating() const {
    Array* head = live_.load(std::memory_order_acquire);
    return head->prev.load(std::memory_order_acquire) != nullptr;
  }

  std::size_t capacity() const {
    return live_.load(std::memory_order_acquire)->capacity;
  }

  // Bytes of slot arrays that still hold memory: the live array, sealed
  // arrays, and detached heap arrays. A released (mapped) array no longer
  // counts.
  std::uint64_t retained_bytes() const {
    return retained_bytes_.load(std::memory_order_relaxed);
  }

  // Slot arrays of at least this many bytes are mapped, and released once
  // their migration sweep completes.
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  // Quiescent iteration for checkpointing: visits every PUBLISHED slot of
  // the arrays lookups still reach — the live array and any sealed array
  // whose sweep is pending (an array whose sweep completed holds only keys
  // its successors already have) — calling `fn(key, value, meta)`.
  // Caller contract: no concurrent inserts (the engine calls this only after
  // every worker joined). A key carried over by a partial migration sweep
  // appears in both its sealed and its destination array with the SAME
  // value and meta, so callers needing uniqueness dedup by value.
  template <typename F>
  void for_each_published(F&& fn) {
    // rcons-lint: allow(hot-path-no-mutex) enumeration runs offline (checkpoint), never per-insert
    std::lock_guard<std::mutex> lock(growth_mu_);
    for (const Array* array = live_.load(std::memory_order_acquire); array != nullptr;
         array = array->prev.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < array->capacity; ++i) {
        const Slot& slot = array->slots[i];
        if (tag_of(slot).load(std::memory_order_acquire) == kPublished) {
          fn(util::U128{slot.key_lo, slot.key_hi}, slot.value, slot.meta);
        }
      }
    }
  }

 private:
  // Test-only access (tests/engine/cas_table_test.cpp): holds a migration
  // stripe claimed, as a descheduled migrator does.
  friend struct CasTableTestSeam;

  // Slot tag states. 32-bit so the CAS is narrow and the slot stays 32 bytes.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kClaimed = 1;
  static constexpr std::uint32_t kPublished = 2;
  static constexpr std::uint32_t kTombstone = 3;

  static constexpr std::size_t kMinCapacity = 16;  // power of two
  // Pre-sizing cap (slots): beyond this the table grows cooperatively
  // instead of committing memory up front.
  static constexpr std::size_t kMaxPresize = std::size_t{1} << 22;
  // Slots per migration stripe: one stripe is copied per insert while a
  // sweep is pending, so a sweep of capacity C completes within C/32 helped
  // inserts — well before the ~0.6*C fresh inserts that would trigger the
  // next growth.
  static constexpr std::size_t kStripeSlots = 32;
  // Inserts a caller holds before it folds them into size_, and the array
  // size below which it folds every insert (see the header comment).
  static constexpr std::uint64_t kFoldInserts = 16;
  static constexpr std::size_t kFoldMinCapacity = std::size_t{1} << 12;

  // Trivial, so a zeroed mapping already is an array of EMPTY slots; the
  // tag is a plain word accessed only through tag_of().
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
          num_stripes((cap + kStripeSlots - 1) / kStripeSlots),
          mapped(cap * sizeof(Slot) >= kMapBytes),
          slots(allocate(cap, mapped)) {}
    ~Array() {
      if (mapped) {
        ::munmap(slots, bytes());
      } else {
        delete[] slots;
      }
    }
    Array(const Array&) = delete;
    Array& operator=(const Array&) = delete;

    std::size_t bytes() const { return capacity * sizeof(Slot); }

    // True once the sweep of a mapped array completed: its pages may be
    // released.
    bool swept_and_mapped() const {
      return mapped && stripes_done.load(std::memory_order_acquire) == num_stripes;
    }

    // Returns the pages of a mapped array whose sweep completed; later reads
    // see zeros (see the header comment). Heap arrays are kept as they are.
    bool release() {
      return mapped && ::madvise(slots, bytes(), MADV_DONTNEED) == 0;
    }

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
    const std::size_t num_stripes;
    const bool mapped;
    Slot* const slots;
    // The next-older array whose sweep feeds this chain; cleared (detached
    // from lookups) when that sweep completes. The Array itself is retired
    // to the table, not freed, so racing readers never chase a dangling
    // pointer.
    std::atomic<Array*> prev{nullptr};
    std::atomic<bool> sealed{false};
    std::atomic<std::size_t> stripe_cursor{0};  // next stripe to claim
    std::atomic<std::size_t> stripes_done{0};
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

  // Waits out a CLAIMED tag (the owner is between its CAS and its publish or
  // tombstone — a handful of plain stores away).
  static std::uint32_t settle(const Slot& slot, std::uint32_t tag) {
    while (tag == kClaimed) {
      std::this_thread::yield();
      tag = tag_of(slot).load(std::memory_order_seq_cst);
    }
    return tag;
  }

  // True when the slot, whose tag read PUBLISHED, holds `key`; fills `found`
  // from it. The tag is read again after the payload: a slot of a released
  // array may have been zeroed between the two, and then its key and payload
  // are not the published ones (an all-zero key would match with value 0).
  static bool read_match(const Slot& slot, util::U128 key, Found& found) {
    if (slot.key_lo != key.lo || slot.key_hi != key.hi) return false;
    found = Found{slot.value, slot.meta, false};
    std::atomic_thread_fence(std::memory_order_acquire);
    return tag_of(slot).load(std::memory_order_relaxed) == kPublished;
  }

  // Read-only probe of one array. seq_cst tag loads: claims that landed in
  // this array before it sealed are ordered before our load (see the seal
  // handshake in the header comment), so we never conclude "absent" while an
  // in-flight pre-seal claim is about to publish our key.
  static bool probe_published(const Array& a, util::U128 key, Found& found,
                              OpStats* stats) {
    std::size_t index = bucket(key, a.mask);
    std::uint64_t probes = 0;
    for (;;) {
      const Slot& slot = a.slots[index];
      if (probes >= a.capacity) {
        // Every slot inspected, no EMPTY and no match: the array filled
        // completely before its (forced) seal. The key is simply absent.
        note_probe(stats, probes);
        return false;
      }
      probes += 1;
      std::uint32_t tag = tag_of(slot).load(std::memory_order_seq_cst);
      tag = settle(slot, tag);
      if (tag == kEmpty) {
        note_probe(stats, probes);
        return false;
      }
      if (tag == kPublished && read_match(slot, key, found)) {
        note_probe(stats, probes);
        return true;
      }
      index = (index + 1) & a.mask;
    }
  }

  struct Claim {
    enum Outcome { kInserted, kFound, kSealed, kFull };
    Outcome outcome = kSealed;
    Found found;  // the resident payload (kInserted, kFound)
  };

  // Probes the live array for `key`, claiming the first EMPTY slot of the
  // chain. The CAS arbitrates racing inserters of the same key: the loser
  // re-reads the slot, waits out the claim, and either finds the key
  // (duplicate) or probes on. Returns kFull after inspecting every slot
  // without a match or an EMPTY — possible only in the pathological window
  // where a pending migration has deferred growth while inserts kept
  // landing; the caller must force a growth or the probe loop would spin.
  template <typename F>
  Claim claim_or_find(Array& a, util::U128 key, std::uint32_t meta, F&& make_value,
                      OpStats* stats) {
    std::size_t index = bucket(key, a.mask);
    std::uint64_t probes = 0;
    for (;;) {
      Slot& slot = a.slots[index];
      if (probes >= a.capacity) {
        note_probe(stats, probes);
        return Claim{Claim::kFull, {}};
      }
      probes += 1;
      std::uint32_t tag = tag_of(slot).load(std::memory_order_acquire);
      for (;;) {
        if (tag == kEmpty) {
          std::uint32_t expected = kEmpty;
          if (tag_of(slot).compare_exchange_strong(expected, kClaimed,
                                               std::memory_order_seq_cst,
                                               std::memory_order_acquire)) {
            if (a.sealed.load(std::memory_order_seq_cst)) {
              // Claimed a slot in an array that sealed under us: kill the
              // slot and retry in the replacement (see header comment). If
              // the array was swept and released meanwhile, the claim may
              // have been zeroed away.
              RCONS_DCHECK_MSG(tag_of(slot).load(std::memory_order_relaxed) == kClaimed ||
                                   a.swept_and_mapped(),
                               "tombstone transition from a tag we do not own");
              tag_of(slot).store(kTombstone, std::memory_order_release);
              note_probe(stats, probes);
              return Claim{Claim::kSealed, {}};
            }
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
            return Claim{Claim::kInserted, Found{slot.value, meta, false}};
          }
          if (stats != nullptr) stats->cas_retries += 1;
          tag = expected;  // the failed CAS loaded the current tag
          continue;
        }
        if (tag == kClaimed) {
          tag = settle(slot, tag);
          continue;
        }
        break;  // kPublished or kTombstone
      }
      Found found;
      if (tag == kPublished && read_match(slot, key, found)) {
        note_probe(stats, probes);
        return Claim{Claim::kFound, found};
      }
      index = (index + 1) & a.mask;
    }
  }

  // Inserts a slot carried over from sealed array `floor` into the live
  // chain. Deduplicates only against arrays strictly newer than `floor`: a
  // key lives in exactly one sealed array (fresh inserts always checked the
  // whole chain first), so older arrays cannot hold it, and stripe ownership
  // means no other migrator is moving this particular slot.
  void migrate_insert(util::U128 key, std::uint64_t value, std::uint32_t meta,
                      const Array* floor, OpStats* stats) {
    for (;;) {
      Array* head = live_.load(std::memory_order_acquire);
      bool duplicate = false;
      for (Array* old = head->prev.load(std::memory_order_acquire);
           old != nullptr && old != floor;
           old = old->prev.load(std::memory_order_acquire)) {
        Found existing;
        if (probe_published(*old, key, existing, stats)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) return;
      Claim claim = claim_or_find(*head, key, meta, [value] { return value; }, stats);
      if (claim.outcome == Claim::kInserted || claim.outcome == Claim::kFound) return;
      if (claim.outcome == Claim::kFull) {
        force_grow(head);
        continue;
      }
      // kSealed: wait for the replacement array, then retry there.
      while (live_.load(std::memory_order_acquire) == head) std::this_thread::yield();
    }
  }

  // The oldest sealed array whose sweep is pending, or nullptr; `successor`
  // is the array whose prev it is. Chains longer than one are rare — they
  // need a growth while the previous sweep is pending.
  Array* oldest_pending(Array*& successor) const {
    successor = live_.load(std::memory_order_acquire);
    Array* oldest = successor->prev.load(std::memory_order_acquire);
    if (oldest == nullptr) return nullptr;
    for (;;) {
      Array* older = oldest->prev.load(std::memory_order_acquire);
      if (older == nullptr) return oldest;
      successor = oldest;
      oldest = older;
    }
  }

  // Claims and migrates one stripe of the oldest pending sealed array. Called
  // by inserts while a sweep is pending — the cooperative,
  // no-stop-the-world growth path.
  void help_migrate(OpStats* stats) {
    Array* successor = nullptr;
    Array* oldest = oldest_pending(successor);
    if (oldest == nullptr) return;
    const std::size_t stripe =
        oldest->stripe_cursor.fetch_add(1, std::memory_order_relaxed);
    if (stripe >= oldest->num_stripes) return;  // sweep fully claimed
    migrate_stripe(*oldest, *successor, stripe, stats);
  }

  // Migrates claimed `stripe` of sealed array `oldest` (`successor`'s prev);
  // the last stripe detaches `oldest` from lookups.
  void migrate_stripe(Array& oldest, Array& successor, std::size_t stripe, OpStats* stats) {
    const std::size_t begin = stripe * kStripeSlots;
    std::size_t end = begin + kStripeSlots;
    if (end > oldest.capacity) end = oldest.capacity;
    for (std::size_t i = begin; i < end; ++i) {
      Slot& slot = oldest.slots[i];
      std::uint32_t tag = tag_of(slot).load(std::memory_order_seq_cst);
      tag = settle(slot, tag);
      if (tag != kPublished) continue;
      migrate_insert(util::U128{slot.key_lo, slot.key_hi}, slot.value, slot.meta, &oldest,
                     stats);
    }
    if (stats != nullptr) stats->migration_stripes += 1;
    const std::size_t done = oldest.stripes_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == oldest.num_stripes) {
      // Every slot is carried over: detach the array from lookups, then
      // return a mapped array's pages. The Array stays retired in arrays_
      // until destruction.
      successor.prev.store(nullptr, std::memory_order_release);
      if (oldest.release()) {
        retained_bytes_.fetch_sub(oldest.bytes(), std::memory_order_relaxed);
      }
    }
  }

  // Counts one insert that landed in `claimed_in`: held in `stats`, or
  // folded with those held into size_, followed by the growth check.
  void count_insert(Array* claimed_in, OpStats* stats) {
    std::uint64_t inserts = 1;
    if (stats != nullptr) {
      inserts += stats->unfolded_inserts;
      if (inserts < kFoldInserts && claimed_in->capacity >= kFoldMinCapacity) {
        stats->unfolded_inserts = inserts;
        return;
      }
      stats->unfolded_inserts = 0;
    }
    size_.fetch_add(inserts, std::memory_order_relaxed);
    maybe_grow(claimed_in);
  }

  void maybe_grow(Array* claimed_in) {
    if (size_.load(std::memory_order_relaxed) <= claimed_in->capacity / 8 * 5) return;
    // rcons-lint: allow(hot-path-no-mutex) growth only; inserts reach here after the lock-free size gate
    std::lock_guard<std::mutex> lock(growth_mu_);  // cold path: growth only
    Array* head = live_.load(std::memory_order_relaxed);
    if (head != claimed_in) return;  // someone else already grew
    const std::uint64_t size = size_.load(std::memory_order_relaxed);
    if (size <= head->capacity / 8 * 5) return;
    if (head->prev.load(std::memory_order_acquire) != nullptr &&
        size <= head->capacity / 8 * 7) {
      // The previous sweep is still pending; inserts keep helping it along
      // and the next threshold crossing re-attempts the growth. Probing
      // stays short at the (briefly) higher load factor. A stalled migrator
      // can keep the sweep pending for good, so past 7/8 the growth stacks
      // an epoch on the pending one, as force_grow does.
      return;
    }
    grow_locked(head);
  }

  // Growth demanded by a kFull probe: the live array has no EMPTY slots, so
  // no insert can succeed until a new epoch exists. Unlike maybe_grow this
  // ignores the load thresholds, and like it past 7/8 it ignores a pending
  // prev sweep — stacking a second
  // epoch is safe (help_migrate walks to the oldest pending array, lookups
  // traverse the whole chain, and migrate_insert dedups against every array
  // newer than its floor); refusing to stack would spin forever.
  void force_grow(Array* full) {
    // rcons-lint: allow(hot-path-no-mutex) taken once per array exhaustion, the sanctioned growth path
    std::lock_guard<std::mutex> lock(growth_mu_);
    Array* head = live_.load(std::memory_order_relaxed);
    if (head != full) return;  // someone else already grew past it
    grow_locked(head);
  }

  // Precondition: growth_mu_ held and `head` == live_.
  void grow_locked(Array* head) {
    auto next = std::make_unique<Array>(head->capacity * 2);
    retained_bytes_.fetch_add(next->bytes(), std::memory_order_relaxed);
    next->prev.store(head, std::memory_order_relaxed);
    rehashes_.fetch_add(1, std::memory_order_relaxed);
    // Order matters: seal first, then publish. A claimer that slipped into
    // `head` before the seal publishes normally and is visible to every
    // later prober (seq_cst handshake); one that reads the seal after its
    // CAS tombstones itself and retries in `next`.
    head->sealed.store(true, std::memory_order_seq_cst);
    Array* raw = next.get();
    arrays_.push_back(std::move(next));
    live_.store(raw, std::memory_order_seq_cst);
  }

  std::atomic<Array*> live_{nullptr};
  // Bumped once per kFoldInserts inserts of a caller: its own cache line, so
  // the bumps never evict `live_`, which every probe of every worker loads.
  alignas(64) std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> rehashes_{0};
  std::atomic<std::uint64_t> retained_bytes_{0};
  // rcons-lint: allow(hot-path-no-mutex) serializes growth (cold); never taken by inserts
  std::mutex growth_mu_;
  std::vector<std::unique_ptr<Array>> arrays_;  // guarded by growth_mu_
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_CAS_TABLE_HPP
