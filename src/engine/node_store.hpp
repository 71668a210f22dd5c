// Interned node representation for the exhaustive explorers.
// rcons-lint: hot-path
//
// A node is its canonical encoding: a flat `std::vector<typesys::Value>`
// record interned once in a per-worker bump arena, keyed by the node's
// 128-bit fingerprint through a lock-free CAS-claimed slot index
// (engine/cas_table.hpp). The store doubles as the visited set (interning
// *is* deduplication), frontier items carry interned ids instead of owning
// nodes, and expansion decodes a record into a reusable per-worker scratch
// `Node` — no `Memory`/`Process` clones, no allocations and no locks per
// successor on both the hit and the miss path.
//
// Record layout (NodeCodec):
//
//   [crashes_used, ndecisions, decisions...]    header (sorted distinct outputs)
//   [registers..., object states...]            Memory::encode
//   per process: [done, (ever, last)?, state…]  Process::encode (variable; the
//                                               ever/last pair only when the
//                                               at-most-once property tracks
//                                               per-process outputs)
//   [steps_in_run...]                           sidecar, one value per process
//
// Everything except the sidecar is the canonical encoding the fingerprint
// covers — byte-for-byte the same prefix `engine::encode_node` produces. The
// sidecar (per-run step counts for the recoverable-wait-freedom bound) is
// intentionally outside the fingerprint: the first path to reach a state
// fixes its step counts. The fingerprint is computed *during* encoding
// (engine::FpStream): each record segment is absorbed right after it is
// written, so the separate fingerprint sweep of the record is gone.
//
// Symmetry reduction: a `Canonicalizer` built from a symmetry declaration
// (ExplorerConfig::symmetry_classes) sorts the per-process blocks of each
// class — processes running identical programs — into a canonical order
// before fingerprinting. States that differ only by permuting interchangeable
// processes then intern to one record, shrinking visited sets combinatorially
// for team-consensus and tournament scenarios. Only whole-node encodes (the
// root, crash-all, checkpoint re-seeds) sort; a per-process successor of a
// canonical parent differs from it in one block, so encode_successor()
// re-inserts that block at its rank within its class while writing the
// record, fingerprinting it in the same pass. The canonical representative
// is what exploration continues from; since class members are behaviourally
// identical this preserves every verdict, but a violating schedule found
// under reduction is a schedule of representatives — valid up to a class
// permutation, not guaranteed to replay verbatim on the concrete system.
//
// The canonicalizer is also *stabilizer-aware*: from a canonical parent
// record it can compute, once per expansion, which same-class processes are
// in the same orbit of the state's stabilizer — identical block AND identical
// sidecar step count — so expansion enumerates one representative event per
// orbit and credits the skipped siblings (Canonicalizer::orbit_mask,
// NodeCodec::orbit_skip_mask, engine.orbit_skipped).
#ifndef RCONS_ENGINE_NODE_STORE_HPP
#define RCONS_ENGINE_NODE_STORE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/cas_table.hpp"
#include "engine/expand.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

// Picks the shard bits of a parallel run's store.
// Two forces:
//
//   * contention — with T workers inserting concurrently we want enough
//     shards that two unrelated inserts rarely meet on one table's atomics:
//     at least 8×T shards (collision probability <= 1/8 per pair), rounded
//     up to the next power of two;
//   * occupancy — a state space of S states should not be spread over more
//     than S/64 shards, or most shards sit empty and cache locality
//     degrades.
//
// The occupancy cap wins when they conflict (tiny spaces finish before
// contention matters). `expected_states` of 0 means unknown — only the
// contention bound applies. A single worker always gets 0 bits (the
// sequential layout; no concurrent inserts to spread). Result is clamped to
// the supported [0, 16] range.
int pick_shard_bits(int num_threads, std::uint64_t expected_states);

// Puts same-class per-process blocks of an encoded node into canonical
// order. Built once per run from the symmetry declaration; copy one per
// worker (cheap — it owns only the class index and scratch buffers).
//
// The canonical order of a class is one rule, compare(): lexicographic on the
// block values, then on the sidecar step count, with full ties left in
// process-index order. canonicalize() applies it to a whole record;
// reinsert() applies it to a successor of a canonical record, in which only
// one block moved. Both share compare(), so they cannot drift apart.
class Canonicalizer {
 public:
  Canonicalizer() = default;  // identity (no declaration)
  explicit Canonicalizer(const std::vector<int>& symmetry_classes);

  // True when at least one class has two or more members.
  bool active() const { return !groups_.empty(); }

  // True when `process` shares its class with another process.
  bool has_peers(int process) const {
    return static_cast<std::size_t>(process) < members_.size() &&
           members_[static_cast<std::size_t>(process)].group >= 0;
  }

  // Three-way compare (<0, 0, >0) of two blocks with their sidecar step
  // counts under the canonical order. The sidecar only disambiguates equal
  // blocks — equal blocks fingerprint identically either way — but it keeps
  // the stored record deterministic. A 0 (full tie) is broken by process
  // index.
  static int compare(const typesys::Value* a, std::size_t a_size, typesys::Value a_steps,
                     const typesys::Value* b, std::size_t b_size, typesys::Value b_steps);

  // `record` holds a full NodeCodec record whose per-process blocks span
  // [block_offsets[i], block_offsets[i+1]) and whose sidecar occupies the
  // final n values. Reorders same-class blocks (and their sidecar entries)
  // into sorted order with a stable insertion sort per class. Returns true
  // when a non-identity permutation was applied (a canonicalization "hit").
  // Allocates nothing once the scratch buffers have grown to the record.
  bool canonicalize(std::vector<typesys::Value>& record,
                    const std::vector<std::size_t>& block_offsets);

  // Canonical order of a successor of the *canonical* record `parent` in
  // which only `process` changed: its block to [block, block + block_size)
  // and its sidecar entry to `steps`. Requires has_peers(process). Walks the
  // new block from its old slot to its rank among the class with at most
  // (class size - 1) compare() calls, and fills `order` (n entries) with the
  // process whose block — the new one for `process` — belongs at each
  // position. Returns true when that order is not the identity, exactly when
  // canonicalize() of the successor in the parent's order would return true.
  bool reinsert(const typesys::Value* parent, const std::vector<std::size_t>& block_offsets,
                int process, const typesys::Value* block, std::size_t block_size,
                typesys::Value steps, std::vector<int>& order) const;

  // Stabilizer orbits of a *canonical* record: marks skip[p] = 1 for every
  // same-class process whose block and sidecar step count equal those of an
  // earlier class member (canonical order sorts equal blocks adjacent, so
  // one adjacent compare per member suffices). Such a process is a
  // non-representative orbit member — any event on it produces a state that
  // canonicalizes identically to the representative's — and expansion may
  // skip its events entirely. Returns the number of processes marked.
  int orbit_mask(const typesys::Value* record,
                 const std::vector<std::size_t>& block_offsets,
                 std::vector<std::uint8_t>& skip) const;

 private:
  // Where a process sits in groups_: group -1 when it has no same-class peer.
  struct Member {
    int group = -1;
    int index = 0;
  };

  std::size_t num_processes_ = 0;
  std::vector<std::vector<int>> groups_;  // classes with >= 2 members
  std::vector<Member> members_;           // per process
  std::vector<int> order_;                // scratch: block source per position
  std::vector<int> sorted_;               // scratch: one class being sorted
  std::vector<typesys::Value> scratch_;   // scratch: rebuilt record
};

// Encodes nodes into interned records and decodes records back into a
// structurally compatible scratch node. One codec per worker (it owns scratch
// buffers); all codecs of a run must share the same symmetry declaration.
//
// decode() additionally captures the record's *layout* (per-process block
// offsets), which unlocks two per-successor fast paths against that record:
//   * restore() — refill only the shared header/memory/sidecar plus the one
//     process block a previous event dirtied, instead of decoding all n
//     process programs again;
//   * encode_successor() — build a successor's record by memcpy-ing the n-1
//     unchanged process blocks straight from the parent record, encoding
//     only the stepped/crashed process, and keeping the record canonical by
//     re-inserting that one block (Canonicalizer::reinsert) instead of
//     sorting the record again.
// Both are pure record-level optimizations: the resulting records and
// fingerprints are identical to full decode()+encode().
class NodeCodec {
 public:
  // `dirty` argument of restore(): no process block needs re-decoding, or
  // all of them do (also refreshes the captured layout via full decode()).
  static constexpr int kDirtyNone = -1;
  static constexpr int kDirtyAll = -2;

  NodeCodec() = default;
  explicit NodeCodec(const std::vector<int>& symmetry_classes)
      : canonicalizer_(symmetry_classes) {}

  struct Encoded {
    util::U128 fingerprint;
    std::size_t fingerprint_length = 0;  // record prefix the fingerprint covers
    bool permuted = false;               // canonicalizer applied a permutation
  };

  // Writes the full record (canonical encoding + sidecar) for `node` into
  // `record`, fingerprinting the canonical prefix in the same pass.
  Encoded encode(const Node& node, std::vector<typesys::Value>& record);

  // Like encode(), but every process block except `changed_process` is
  // copied verbatim from `parent` (the record most recently decode()d by
  // this codec — its captured layout supplies the block spans). The header,
  // memory, changed block, and sidecar come from `node`. `parent` is
  // canonical, so only the changed block can be out of place: without a
  // same-class peer it is patched in place; with one it is re-inserted at
  // its rank (Canonicalizer::reinsert) while the record is written, so the
  // fingerprint is absorbed in the same single pass and nothing is sorted
  // or rebuilt. The result equals encode() of `node` byte for byte.
  Encoded encode_successor(const typesys::Value* parent, std::size_t parent_size,
                           const Node& node, int changed_process,
                           std::vector<typesys::Value>& record);

  // Restores `out` — which must be structurally a copy of the run's root
  // (same memory layout, same programs) — from a record produced by encode().
  // Captures the record's layout for restore()/encode_successor()/
  // orbit_skip_mask() against the same record.
  void decode(const typesys::Value* record, std::size_t size, Node& out);

  // Partial re-decode of the record last passed to decode(): always refills
  // the header, decisions, memory, per-process scalar fields and sidecar
  // (cheap flat reads), but re-decodes only the program state of process
  // `dirty` (kDirtyNone: none; kDirtyAll: delegates to decode(), refreshing
  // the layout). Between successors of one expansion exactly one process —
  // the previous event's target — is dirty, so this replaces n program
  // decodes with one.
  void restore(const typesys::Value* record, std::size_t size, Node& out,
               int dirty);

  // Orbit mask of the record last passed to decode() (see
  // Canonicalizer::orbit_mask). Returns the number of processes marked.
  int orbit_skip_mask(const typesys::Value* record,
                      std::vector<std::uint8_t>& skip) const;

  bool canonicalizing() const { return canonicalizer_.active(); }

 private:
  // encode_successor()'s contract check: encode() of `node` gives the same
  // record, fingerprint and hit flag.
  bool matches_encode(const Node& node, const std::vector<typesys::Value>& record,
                      const Encoded& encoded);

  Canonicalizer canonicalizer_;
  std::vector<std::size_t> offsets_;   // scratch: per-process block offsets
  std::vector<typesys::Value> block_;  // scratch: a successor's changed block
  std::vector<int> order_;             // scratch: successor block order

  // Layout of the record most recently decode()d: where the process blocks
  // and the sidecar live. Valid until the next decode().
  std::size_t header_end_ = 0;                 // first process block offset
  std::vector<std::size_t> block_offsets_;     // n+1 entries; [n] = sidecar
};

// Interning store: record payloads live in per-worker chunked bump arenas,
// keyed by fingerprint through lock-free CAS-claimed slot tables
// (engine/cas_table.hpp). Interning an already-present fingerprint is the
// deduplication hit that replaces the separate visited set.
//
// intern() is mutex-free on both the hit and the miss path: the duplicate
// check is a lock-free probe, and a miss claims its index slot by CAS and
// bump-allocates the record copy from the calling worker's private arena
// *inside the claimed window* (CasTable::insert_with), so duplicates never
// pay a record copy and new records are published to concurrent readers by
// the slot's release-store. The only locks left are cold: index growth
// (CasTable's epoch migration) and fresh chunk allocation (once per
// kChunkValues interned values per worker).
class NodeStore {
 public:
  using NodeId = std::uint64_t;

  // Valid shard_bits: 0 (single index shard — the sequential layout) through
  // 16. `expected_states` pre-sizes the shard indexes so a run of the
  // anticipated size never rehashes (0 = unknown, start minimal).
  // `num_arenas` is the number of concurrent interning callers (one arena
  // per worker; arena i must only ever be used by one thread at a time).
  explicit NodeStore(int shard_bits, std::uint64_t expected_states = 0,
                     int num_arenas = 1);

  struct Intern {
    NodeId id = 0;
    bool inserted = false;  // true when the fingerprint was new

    // Direct view of the interned payload in its arena chunk. Records are
    // immutable once written and chunks never move, so the pointer is stable
    // for the store's lifetime; the index's publish/acquire tag protocol
    // orders the payload writes before any reader that found the id, so
    // expansion decodes in place — no lock, no copy per fetch.
    const typesys::Value* record = nullptr;
    std::uint32_t length = 0;
  };

  // Interns `record` under `fingerprint` using the caller's arena; returns
  // the (existing or new) id and the resident payload view. Probe/CAS
  // counters accumulate into `stats` when non-null.
  Intern intern(util::U128 fingerprint, const std::vector<typesys::Value>& record,
                int arena = 0, CasTable::OpStats* stats = nullptr);

  // Copies record `id` into `out` (cleared first). Safe to call concurrently
  // with intern().
  void fetch(NodeId id, std::vector<typesys::Value>& out) const;

  // Unique records interned. Exact at quiescence.
  std::uint64_t size() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_arenas() const { return static_cast<int>(arenas_.size()); }

  // Index growth epochs across the shards. The traversals count records
  // and bytes themselves (engine::Tally).
  std::uint64_t rehashes() const;

  // Rebuilds the index over 2^shard_bits shards, each pre-sized for its
  // share of the records interned so far, and adds arenas up to
  // `num_arenas`. Records stay where they are, so every Intern view stays
  // valid. This is how a depth-first probe's store (one shard, one arena)
  // becomes the worker loop's (ParallelExplorer::escalate). Caller contract:
  // no concurrent interns or reads.
  void reshard(int shard_bits, int num_arenas);

  // Quiescent iteration over every interned record for checkpointing:
  // `fn(fingerprint, payload, length)` where `payload` points at the record
  // values (the slice intern() copied, excluding the length header). Caller
  // contract: no concurrent interns. Keys migrated by a partial index sweep
  // appear in two epoch arrays with the same header address; they are
  // deduplicated here (by that address) so each record is yielded once.
  template <typename F>
  void for_each_record(F&& fn) {
    std::vector<std::pair<util::U128, std::uint64_t>> entries;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      entries.clear();
      shard->index.for_each_published([&](util::U128 key, std::uint64_t value) {
        entries.emplace_back(key, value);
      });
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      std::uint64_t last = 0;
      bool first = true;
      for (const auto& [key, value] : entries) {
        if (!first && value == last) continue;  // migrated duplicate
        first = false;
        last = value;
        const auto* header =
            reinterpret_cast<const typesys::Value*>(static_cast<std::uintptr_t>(value));
        fn(key, header + 1, static_cast<std::uint32_t>(header[0]));
      }
    }
  }

 private:
  // Fixed-capacity chunks keep record payloads contiguous without ever
  // moving (ids and payload addresses are stable once written). A record is
  // stored as [length][values...]; the id is the header's address.
  static constexpr std::size_t kChunkValues = std::size_t{1} << 14;

  // One per interning worker; cache-line separated so two workers' bump
  // pointers never false-share.
  struct alignas(64) Arena {
    typesys::Value* cur = nullptr;
    typesys::Value* end = nullptr;
  };

  struct alignas(64) Shard {
    explicit Shard(std::uint64_t expected) : index(expected) {}
    CasTable index;  // fingerprint -> record header address
  };

  // Points the arena at a fresh chunk with >= `need` free values. Cold path:
  // takes chunk_mu_ once per kChunkValues interned values per worker.
  typesys::Value* arena_refill(Arena& arena, std::size_t need);

  std::size_t shard_index(util::U128 key) const {
    return shard_bits_ == 0
               ? 0
               : static_cast<std::size_t>(key.hi >> (64 - shard_bits_));
  }

  int shard_bits_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Arena>> arenas_;
  // rcons-lint: allow(hot-path-no-mutex) cold: guards chunk allocation, never per-intern
  std::mutex chunk_mu_;
  std::vector<std::unique_ptr<typesys::Value[]>> chunks_;
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_NODE_STORE_HPP
