// Interned node representation for the exhaustive explorers.
// rcons-lint: hot-path
//
// A node is its canonical encoding: a flat `std::vector<typesys::Value>`
// record interned once in a per-worker bump arena, keyed by the node's
// 128-bit fingerprint through a lock-free CAS-claimed slot index
// (engine/cas_table.hpp). The store doubles as the visited set (interning
// *is* deduplication), frontier items carry interned record views instead of
// owning nodes, and expansion decodes a record into a reusable per-worker
// scratch `Node` — no `Memory`/`Process` clones, no allocations and no locks
// per successor on both the hit and the miss path.
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
// fixes its step counts. The fingerprint is two-level (engine/expand.hpp):
// a digest per segment of the canonical prefix — the header with the
// memory, then each process block — absorbed in record order and avalanched
// once. decode() digests the parent's blocks once per expansion, so a
// per-process successor digests only its new header and its changed block.
//
// A successor is first kept as the pieces in which it differs from its
// parent (NodeCodec::Delta: header, changed block, its sidecar entry and the
// rank of a re-inserted block), which is all its fingerprint needs. Its
// record is written only when it is new: NodeStore::intern takes a writer
// that assembles the record from the parent record and the pieces straight
// into the arena, inside the index slot's claimed window, so a duplicate —
// most successors — writes no record at all.
//
// Symmetry reduction: a `Canonicalizer` built from a symmetry declaration
// (ExplorerConfig::symmetry_classes) sorts the per-process blocks of each
// class — processes running identical programs — into a canonical order
// before fingerprinting. States that differ only by permuting interchangeable
// processes then intern to one record, shrinking visited sets combinatorially
// for team-consensus and tournament scenarios. Only whole-node encodes (the
// root, crash-all, checkpoint re-seeds) sort; a per-process successor of a
// canonical parent differs from it in one block, so encode_delta() ranks
// that block within its class (Canonicalizer::reinsert), absorbs the
// parent's block digests in the new order, and the record is written in that
// order only if it is new. The canonical representative
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

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "engine/cas_table.hpp"
#include "engine/expand.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

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

  // After a canonicalize() that returned true: the process whose block it put
  // at each position.
  const std::vector<int>& order() const { return order_; }

  // Canonical rank of a successor of the *canonical* record `parent` in
  // which only `process` changed: its block to [block, block + block_size)
  // and its sidecar entry to `steps`. Requires has_peers(process). Walks the
  // new block from its old slot to its rank among the class with at most
  // (class size - 1) compare() calls and returns that rank: the position in
  // the class, in process-index order of its members, the block takes. The
  // rank differs from the process's own position exactly when canonicalize()
  // of the successor in the parent's order would return true.
  std::size_t reinsert(const typesys::Value* parent, const std::vector<std::size_t>& block_offsets,
                       int process, const typesys::Value* block, std::size_t block_size,
                       typesys::Value steps) const;

  // `process`'s position in its class (its rank when its block stays put).
  std::size_t position(int process) const {
    return static_cast<std::size_t>(members_[static_cast<std::size_t>(process)].index);
  }

  // Fills `order` (n entries) with the process whose block belongs at each
  // position once `process`'s block moved to class position `rank`.
  void reinsert_order(int process, std::size_t rank, std::vector<int>& order) const;

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
// structurally compatible scratch node. One codec per traversal: it owns the
// class tables, the encode scratch and the parent it captured, so each
// worker has one and the depth-first traversal one, which keeps each
// depth's parent aside (swap_parent) while it recurses. All codecs of a run
// must share the same symmetry declaration.
//
// decode() additionally captures the record's *layout* (per-process block
// offsets) and the digest of each of its process blocks (the Parent), which
// unlocks the per-successor fast paths against that record:
//   * restore() — refill only the shared header/memory/sidecar plus the one
//     process block a previous event dirtied, instead of decoding all n
//     process programs again;
//   * encode_delta() — keep a per-process successor as the pieces in which
//     it differs from the parent (its header, its changed block, that
//     block's sidecar entry and rank) and fingerprint it from the new
//     header's and block's digests and the parent's other block digests,
//     keeping it canonical by ranking that one block (Canonicalizer::
//     reinsert) instead of sorting the record again;
//   * materialize() — write the successor's record from the parent record
//     and its pieces (three copies and a patch when the block keeps its
//     position), once the store found it new.
// All are pure record-level optimizations: the resulting records and
// fingerprints are identical to full decode()+encode().
class NodeCodec {
 public:
  // `dirty` argument of restore(): no process block needs re-decoding, or
  // all of them do (also refreshes the captured layout via full decode()).
  static constexpr int kDirtyNone = -1;
  static constexpr int kDirtyAll = -2;
  // `changed_process` of encode_delta() when every process block may have
  // changed (a crash-all): the pieces are then the whole record.
  static constexpr int kWhole = -1;

  NodeCodec() = default;
  explicit NodeCodec(const std::vector<int>& symmetry_classes)
      : canonicalizer_(symmetry_classes) {}

  struct Encoded {
    util::U128 fingerprint;
    std::size_t fingerprint_length = 0;  // record prefix the fingerprint covers
    bool permuted = false;               // canonicalizer applied a permutation
  };

  // A successor of the record last decode()d, as the pieces in which it
  // differs from it. The pieces lie in the caller's buffer from `offset`:
  // the header (crashes, decisions, memory), then the changed block. With
  // process == kWhole they are the whole record instead.
  struct Delta {
    util::U128 fingerprint;
    std::uint32_t length = 0;  // values of the materialized record
    std::uint32_t offset = 0;  // first piece in the caller's buffer
    std::uint32_t header = 0;  // header values
    std::uint32_t block = 0;   // changed block values
    int process = kWhole;      // the changed process
    std::uint32_t rank = 0;    // class position its block takes (with peers)
    typesys::Value steps = 0;  // its sidecar entry
    bool permuted = false;     // the block left its position: a canonical hit
  };

  // Writes the full record (canonical encoding + sidecar) for `node` into
  // `record`, with its fingerprint.
  Encoded encode(const Node& node, std::vector<typesys::Value>& record);

  // Appends the pieces of `node`, a successor of the record last decode()d
  // in which only `changed_process` changed (kWhole: any process), to
  // `pieces` and returns its Delta. Every other process block is the
  // parent's: the parent is canonical, so only the changed block can be out
  // of place, and with a same-class peer it is ranked among its class. The
  // fingerprint equals encode()'s of `node`; only the new header and block
  // are digested.
  Delta encode_delta(const Node& node, int changed_process, std::vector<typesys::Value>& pieces);

  // Writes the `delta.length` values of the record `delta` describes to
  // `out`: the header and changed block from `pieces` (the buffer
  // encode_delta() appended to), every other block from the record last
  // decode()d, in canonical order. Equals encode() of the successor byte for
  // byte.
  void materialize(const typesys::Value* pieces, const Delta& delta, typesys::Value* out);

  // encode_delta() then materialize() into `record`, for callers that want
  // the full record of every successor. `parent` must be the record last
  // decode()d.
  Encoded encode_successor(const typesys::Value* parent, std::size_t parent_size,
                           const Node& node, int changed_process,
                           std::vector<typesys::Value>& record);

  // Restores `out` — which must be structurally a copy of the run's root
  // (same memory layout, same programs) — from a record produced by encode().
  // Captures the record, its layout and its block digests for restore(),
  // encode_delta(), materialize() and orbit_skip_mask(); the record must
  // stay in place while they use it.
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

  // The record most recently decode()d, its layout — where the process
  // blocks and the sidecar live — and the digest of each process block:
  // what restore(), encode_delta(), materialize() and orbit_skip_mask() work
  // against. Valid until the next decode().
  struct Parent {
    const typesys::Value* record = nullptr;
    std::size_t header_end = 0;              // first process block offset
    std::vector<std::size_t> block_offsets;  // n+1 entries; [n] = sidecar
    std::vector<util::U128> block_digests;   // n entries
  };

  // Exchanges the captured parent with `saved`, moving buffers only. A
  // traversal that decodes a successor before it is done with the parent
  // keeps the parent in `saved` meanwhile and swaps it back; the successor's
  // decode reuses the buffers `saved` held.
  void swap_parent(Parent& saved) noexcept { std::swap(parent_, saved); }

 private:
  // encode_delta()'s contract check: the materialized record, its
  // fingerprint and its hit flag equal encode() of `node`.
  bool matches_encode(const Node& node, const typesys::Value* pieces, const Delta& delta);

  Canonicalizer canonicalizer_;
  // Scratch of a single call each: nothing in it outlives the call, so
  // one codec serves every depth of a traversal.
  std::vector<std::size_t> offsets_;   // encode()'s block offsets
  std::vector<util::U128> digests_;    // encode()'s block digests
  std::vector<typesys::Value> whole_;  // a kWhole successor's record
  std::vector<typesys::Value> pieces_; // encode_successor()'s pieces
  std::vector<int> order_;             // a re-inserted successor's block order

  Parent parent_;
};

// Interning store: record payloads live in per-worker chunked bump arenas,
// keyed by fingerprint through one lock-free CAS-claimed slot index
// (engine/cas_table.hpp) that every worker shares. Interning an
// already-present fingerprint is the deduplication hit that replaces the
// separate visited set.
//
// intern() is mutex-free on both the hit and the miss path: the duplicate
// check is a lock-free probe, and a miss claims its index slot by CAS and
// writes the record into the calling worker's private arena *inside the
// claimed window* (CasTable::insert_with) through the caller's writer, so
// duplicates never write a record and new records are published to
// concurrent readers by the slot's release-store. The explorer's writer
// assembles a successor from its parent record and its pieces
// (NodeCodec::materialize), so a new record is written once, in place. The
// arena is refilled before the probe, so nothing inside the claimed window
// can fail. The only lock left is cold: fresh chunk allocation.
//
// The index grows only while one thread holds it (CasTable). A store with
// one arena has one interning thread, so it grows itself: the intern after
// one that left it past the growth threshold grows the index before it
// probes, so a failed allocation throws before anything is inserted, as a
// failed arena refill does. A store with several arenas hands the crossing
// to its callers (Intern::grow_due, on every intern whose fold lands past
// the threshold), which grow it through reserve() once every interning
// thread stopped: the worker loop does so at a yield
// (engine/parallel_explorer.hpp). A store gains arenas only through
// add_arenas(), after a reserve() that makes room for them.
//
// Record chunks grow geometrically per store: kSmallChunks chunks of
// kChunkValues (128 KiB), then doubling up to kMaxChunkValues (2 MiB), so a
// small check keeps 128 KiB chunks and a large one takes a lock per 2 MiB.
// No chunk is zero-filled — a record is written whole before it is
// published — so a chunk's pages are faulted in only as records reach them.
// Chunks of 2 MiB are mapped and advised MADV_HUGEPAGE, like the index's
// mapped arrays: expansion reads parent records from all over the arena.
class NodeStore {
 public:
  // `unused` must be 0. It is left from a layout with several index shards
  // and stays only because the benchmark's stage timings (perfbench/)
  // construct stores with it. `expected_states` pre-sizes the index so a run
  // of the anticipated size never rehashes (0 = unknown, start minimal at
  // 16 slots). ParallelExplorer passes at least 1,280 states, a
  // 2,048-slot first index, and a resume the checkpoint's record count.
  // The store starts with one arena (add_arenas() adds more).
  explicit NodeStore(int unused, std::uint64_t expected_states = 0);

  struct Intern {
    bool inserted = false;  // true when the fingerprint was new
    // Several arenas only: this intern's fold left the index past its
    // growth threshold. Grow it with reserve() once no intern runs.
    bool grow_due = false;

    // Direct view of the interned payload in its arena chunk. Records are
    // immutable once written and chunks never move, so the pointer is stable
    // for the store's lifetime (one fingerprint, one pointer); the index's
    // publish/acquire tag protocol orders the payload writes before any
    // reader that found the record, so expansion decodes in place — no lock,
    // no copy.
    const typesys::Value* record = nullptr;
    std::uint32_t length = 0;  // from the index slot: a hit never reads the arena
  };

  // Interns the record of `length` values under `fingerprint` using the
  // caller's arena; returns the resident payload view of the (existing or
  // new) record. Only when the fingerprint is new does `write(out)` run, to
  // write the record's values at `out` inside the claimed window: a
  // duplicate writes nothing. Probe/CAS counters and inserts accumulate into
  // `stats` when non-null; the caller fold()s them once it stops interning.
  template <typename Write>
  Intern intern(util::U128 fingerprint, std::uint32_t length, Write&& write, int arena_index,
                CasTable::OpStats* stats) {
    RCONS_ASSERT(arena_index >= 0 && static_cast<std::size_t>(arena_index) < arenas_.size());
    Arena& arena = *arenas_[static_cast<std::size_t>(arena_index)];
    // A non-empty record keeps every arena address distinct, which the
    // checkpoint's record index relies on.
    RCONS_DCHECK_MSG(length > 0, "interned records are never empty");
    // The arena and a one-arena index make room first: an allocation that
    // failed inside the window would leave the slot CLAIMED, and one that
    // failed after it would lose the caller a state it interned. The length
    // rides in the index slot, so a duplicate never reads the arena either.
    if (static_cast<std::size_t>(arena.end - arena.cur) < length) arena_refill(arena, length);
    if (grow_pending_) {
      index_.grow();
      grow_pending_ = false;
    }
    const CasTable::Found found = index_.insert_with(
        fingerprint, length,
        [&]() -> std::uint64_t {
          typesys::Value* values = arena.cur;
          write(values);
          arena.cur = values + length;
          return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(values));
        },
        stats);
    Intern interned{found.inserted, false,
                    reinterpret_cast<const typesys::Value*>(static_cast<std::uintptr_t>(found.value)),
                    found.meta};
    if (found.grow_due) {
      if (arenas_.size() == 1) {
        grow_pending_ = true;
      } else {
        interned.grow_due = true;
      }
    }
    return interned;
  }

  // Interns a copy of `record` (the writer above, copying it).
  Intern intern(util::U128 fingerprint, std::span<const typesys::Value> record,
                int arena_index = 0, CasTable::OpStats* stats = nullptr) {
    return intern(
        fingerprint, static_cast<std::uint32_t>(record.size()),
        [record](typesys::Value* out) {
          std::memcpy(out, record.data(), record.size() * sizeof(typesys::Value));
        },
        arena_index, stats);
  }

  // Starts loading the index slot an intern of `fingerprint` probes first
  // (CasTable::prefetch).
  void prefetch(util::U128 fingerprint) const { index_.prefetch(fingerprint); }

  // Adds the inserts `stats` holds to size() (CasTable::fold).
  void fold(CasTable::OpStats& stats) { index_.fold(stats); }

  // Unique records interned. Exact at quiescence, once every caller that
  // passed OpStats folded them.
  std::uint64_t size() const { return index_.size(); }

  int num_arenas() const { return static_cast<int>(arenas_.size()); }

  // Bytes of each record chunk, in the order they were allocated. Caller
  // contract: no concurrent interns.
  std::vector<std::size_t> chunk_bytes() const;

  // Growths of the index. The traversals count records and bytes
  // themselves (engine::Tally).
  std::uint64_t rehashes() const { return index_.rehashes(); }

  // Grows the index until it is under its growth threshold with room for
  // `inserters` threads to intern `inserts_each` records each past the
  // intern that reports a growth to them (CasTable::reserve). Caller contract: no
  // concurrent interns, and every caller folded. Throws std::bad_alloc, with
  // every record in place, when a new index array cannot be allocated.
  void reserve(int inserters, std::uint64_t inserts_each) {
    index_.reserve(static_cast<std::uint64_t>(inserters), inserts_each);
    grow_pending_ = false;
  }

  // Adds arenas up to `num_arenas` (one per interning thread; arena i must
  // only ever be used by one thread at a time). Records and the index stay
  // as they are,
  // so every Intern view stays valid. This is how a depth-first probe's
  // store (one arena) becomes the worker loop's (ParallelExplorer::escalate).
  // Caller contract: no concurrent interns or reads, and no growth pending:
  // reserve() first.
  void add_arenas(int num_arenas);

  // Quiescent iteration over every interned record for checkpointing:
  // `fn(fingerprint, payload, length)` where `payload` points at the record
  // values intern() copied. Caller contract: no concurrent interns.
  template <typename F>
  void for_each_record(F&& fn) const {
    index_.for_each_published([&](util::U128 key, std::uint64_t address, std::uint32_t length) {
      fn(key, reinterpret_cast<const typesys::Value*>(static_cast<std::uintptr_t>(address)),
         length);
    });
  }

 private:
  // Chunks keep record payloads contiguous without ever moving (payload
  // addresses are stable once written). The index maps a record's
  // fingerprint to its first value's address and keeps its length in the
  // same slot (CasTable's `meta`), so the arena holds only values. Sizes:
  // see the class comment; kChunkValues is also the longest record.
  static constexpr std::size_t kChunkValues = std::size_t{1} << 14;
  static constexpr std::size_t kSmallChunks = 4;
  static constexpr std::size_t kMaxChunkValues = std::size_t{1} << 18;

  // Frees a chunk of `values` values: mapped ones (kMaxChunkValues) are
  // unmapped, the others deleted.
  struct ChunkFree {
    std::size_t values = 0;
    void operator()(typesys::Value* chunk) const;
  };
  using Chunk = std::unique_ptr<typesys::Value[], ChunkFree>;
  static Chunk allocate_chunk(std::size_t values);

  // One per interning worker; cache-line separated so two workers' bump
  // pointers never false-share.
  struct alignas(64) Arena {
    typesys::Value* cur = nullptr;
    typesys::Value* end = nullptr;
  };

  // Points the arena at a fresh chunk with >= `need` free values. Cold path:
  // takes chunk_mu_ once per chunk.
  void arena_refill(Arena& arena, std::size_t need);

  CasTable index_;  // fingerprint -> record address, with the length as meta
  std::vector<std::unique_ptr<Arena>> arenas_;
  bool grow_pending_ = false;  // one arena: the last intern left it past the threshold
  // rcons-lint: allow(hot-path-no-mutex) cold: guards chunk allocation, never per-intern
  mutable std::mutex chunk_mu_;
  std::vector<Chunk> chunks_;
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_NODE_STORE_HPP
