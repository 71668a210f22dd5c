// rcons-lint: hot-path
#include "engine/node_store.hpp"

#include <cstring>
#include <map>

#include "util/assert.hpp"

namespace rcons::engine {

using typesys::Value;

int pick_shard_bits(int num_threads, std::uint64_t expected_states) {
  if (num_threads <= 1) return 0;

  // Smallest k with 2^k >= 8 * num_threads.
  int contention_bits = 0;
  while (contention_bits < 16 &&
         (std::uint64_t{1} << contention_bits) <
             8 * static_cast<std::uint64_t>(num_threads)) {
    contention_bits += 1;
  }

  if (expected_states == 0) return contention_bits;

  // Largest k with 2^k <= expected_states / 64 (0 when the quotient is 0 or
  // 1 — the loop never advances).
  int occupancy_bits = 0;
  while (occupancy_bits < 16 &&
         (std::uint64_t{1} << (occupancy_bits + 1)) <= expected_states / 64) {
    occupancy_bits += 1;
  }

  return contention_bits < occupancy_bits ? contention_bits : occupancy_bits;
}

// --- Canonicalizer ----------------------------------------------------------

Canonicalizer::Canonicalizer(const std::vector<int>& symmetry_classes)
    : num_processes_(symmetry_classes.size()) {
  std::map<int, std::vector<int>> by_class;
  for (std::size_t i = 0; i < symmetry_classes.size(); ++i) {
    by_class[symmetry_classes[i]].push_back(static_cast<int>(i));
  }
  members_.resize(num_processes_);
  for (auto& [cls, members] : by_class) {
    if (members.size() < 2) continue;
    for (std::size_t j = 0; j < members.size(); ++j) {
      members_[static_cast<std::size_t>(members[j])] =
          Member{static_cast<int>(groups_.size()), static_cast<int>(j)};
    }
    groups_.push_back(std::move(members));
  }
}

int Canonicalizer::compare(const Value* a, std::size_t a_size, Value a_steps,
                           const Value* b, std::size_t b_size, Value b_steps) {
  const std::size_t common = a_size < b_size ? a_size : b_size;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a_size != b_size) return a_size < b_size ? -1 : 1;
  if (a_steps != b_steps) return a_steps < b_steps ? -1 : 1;
  return 0;
}

namespace {

// Canonicalizer::compare() of processes a and b within one record.
int compare_blocks(const Value* record, const std::vector<std::size_t>& block_offsets,
                   std::size_t a, std::size_t b) {
  const std::size_t sidecar = block_offsets.back();
  return Canonicalizer::compare(record + block_offsets[a],
                                block_offsets[a + 1] - block_offsets[a], record[sidecar + a],
                                record + block_offsets[b],
                                block_offsets[b + 1] - block_offsets[b], record[sidecar + b]);
}

}  // namespace

bool Canonicalizer::canonicalize(std::vector<Value>& record,
                                 const std::vector<std::size_t>& block_offsets) {
  if (groups_.empty()) return false;
  const std::size_t n = num_processes_;
  RCONS_ASSERT(block_offsets.size() == n + 1);
  RCONS_ASSERT(record.size() == block_offsets[n] + n);
  const std::size_t sidecar = block_offsets[n];

  const auto less = [&](int a, int b) {
    return compare_blocks(record.data(), block_offsets, static_cast<std::size_t>(a),
                          static_cast<std::size_t>(b)) < 0;
  };

  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = static_cast<int>(i);
  bool permuted = false;
  for (const std::vector<int>& group : groups_) {
    sorted_.assign(group.begin(), group.end());
    // Stable insertion sort (classes are a handful of processes, and the
    // scratch never reallocates once grown): a member only moves past
    // strictly greater ones, so full ties keep process-index order and the
    // identity state (e.g. every process at the root) never counts as a hit.
    for (std::size_t j = 1; j < sorted_.size(); ++j) {
      const int member = sorted_[j];
      std::size_t k = j;
      for (; k > 0 && less(member, sorted_[k - 1]); --k) sorted_[k] = sorted_[k - 1];
      sorted_[k] = member;
    }
    for (std::size_t j = 0; j < group.size(); ++j) {
      order_[static_cast<std::size_t>(group[j])] = sorted_[j];
      permuted = permuted || sorted_[j] != group[j];
    }
  }
  if (!permuted) return false;

  // Rebuild the process region and sidecar in the canonical order.
  scratch_.clear();
  scratch_.insert(scratch_.end(), record.begin(),
                  record.begin() + static_cast<std::ptrdiff_t>(block_offsets[0]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = static_cast<std::size_t>(order_[i]);
    scratch_.insert(scratch_.end(),
                    record.begin() + static_cast<std::ptrdiff_t>(block_offsets[src]),
                    record.begin() + static_cast<std::ptrdiff_t>(block_offsets[src + 1]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    scratch_.push_back(record[sidecar + static_cast<std::size_t>(order_[i])]);
  }
  RCONS_ASSERT(scratch_.size() == record.size());
  record.swap(scratch_);
  return true;
}

bool Canonicalizer::reinsert(const Value* parent,
                             const std::vector<std::size_t>& block_offsets, int process,
                             const Value* block, std::size_t block_size, Value steps,
                             std::vector<int>& order) const {
  const std::size_t n = num_processes_;
  RCONS_ASSERT(block_offsets.size() == n + 1);
  RCONS_ASSERT(has_peers(process));
  const Member member = members_[static_cast<std::size_t>(process)];
  const std::vector<int>& group = groups_[static_cast<std::size_t>(member.group)];
  const std::size_t sidecar = block_offsets[n];

  // Three-way compare of the new block against class member j's parent block.
  const auto versus = [&](std::size_t j) {
    const auto q = static_cast<std::size_t>(group[j]);
    return compare(block, block_size, steps, parent + block_offsets[q],
                   block_offsets[q + 1] - block_offsets[q], parent[sidecar + q]);
  };

  // The parent's class is sorted and the other members keep their blocks, so
  // the new block's rank is found by walking from its old slot: left past
  // strictly greater members, else right past strictly smaller ones. A full
  // tie stops the walk — the process-index order the stable sort keeps.
  const auto from = static_cast<std::size_t>(member.index);
  std::size_t to = from;
  while (to > 0 && versus(to - 1) < 0) --to;
  if (to == from) {
    while (to + 1 < group.size() && versus(to + 1) > 0) ++to;
  }

  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  // Members between the two slots shift by one toward the vacated slot.
  for (std::size_t j = to; j < from; ++j) {
    order[static_cast<std::size_t>(group[j + 1])] = group[j];
  }
  for (std::size_t j = from; j < to; ++j) {
    order[static_cast<std::size_t>(group[j])] = group[j + 1];
  }
  order[static_cast<std::size_t>(group[to])] = process;
  return to != from;
}

int Canonicalizer::orbit_mask(const Value* record,
                              const std::vector<std::size_t>& block_offsets,
                              std::vector<std::uint8_t>& skip) const {
  const std::size_t n = num_processes_;
  RCONS_ASSERT(block_offsets.size() == n + 1);
  skip.assign(n, 0);
  if (groups_.empty()) return 0;
  int marked = 0;
  for (const std::vector<int>& group : groups_) {
    // In a canonical record the group's blocks are sorted, so every orbit is
    // a maximal run of adjacent equal (block, sidecar) members; the run's
    // first member — the lowest process index, which keeps the enumeration
    // order and hence lowest-trace selection deterministic — represents it.
    for (std::size_t j = 1; j < group.size(); ++j) {
      const auto a = static_cast<std::size_t>(group[j - 1]);
      const auto b = static_cast<std::size_t>(group[j]);
      if (compare_blocks(record, block_offsets, a, b) != 0) continue;
      skip[b] = 1;
      marked += 1;
    }
  }
  return marked;
}

// --- NodeCodec --------------------------------------------------------------

NodeCodec::Encoded NodeCodec::encode(const Node& node, std::vector<Value>& record) {
  record.clear();
  FpStream fp;
  encode_node_header(node, record);
  fp.absorb(record.data(), record.size());

  const std::size_t n = node.processes.size();
  offsets_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    offsets_.push_back(record.size());
    encode_process_block(node, i, record);
    // Absorb the block while it is still cache-hot — by the end of the loop
    // the fingerprint is done without a second sweep over the record.
    fp.absorb(record.data() + offsets_.back(), record.size() - offsets_.back());
  }
  offsets_.push_back(record.size());
  for (std::size_t i = 0; i < n; ++i) record.push_back(node.steps_in_run[i]);

  Encoded encoded;
  encoded.permuted = canonicalizer_.canonicalize(record, offsets_);
  encoded.fingerprint_length = record.size() - n;
  // A canonical permutation reorders the absorbed blocks, so only then is a
  // fresh sweep over the (now canonical) prefix needed.
  encoded.fingerprint =
      encoded.permuted ? fingerprint_values(record.data(), encoded.fingerprint_length)
                       : fp.finish(encoded.fingerprint_length);
  // Codec round-trip contract: the fused absorb-during-encode stream must
  // agree with a reference sweep over the finished record. Divergence means
  // an encode path mutated values after absorbing them.
  RCONS_DCHECK_MSG(
      encoded.permuted ||
          encoded.fingerprint ==
              fingerprint_values(record.data(), encoded.fingerprint_length),
      "fused fingerprint diverged from reference sweep");
  return encoded;
}

NodeCodec::Encoded NodeCodec::encode_successor(const Value* parent,
                                               std::size_t parent_size,
                                               const Node& node, int changed_process,
                                               std::vector<Value>& record) {
  const std::size_t n = node.processes.size();
  RCONS_ASSERT_MSG(block_offsets_.size() == n + 1,
                   "encode_successor needs the parent's captured layout");
  RCONS_ASSERT(parent_size == block_offsets_[n] + n);
  RCONS_ASSERT(changed_process >= 0 && static_cast<std::size_t>(changed_process) < n);
  const auto changed = static_cast<std::size_t>(changed_process);

  record.clear();
  FpStream fp;
  encode_node_header(node, record);
  fp.absorb(record.data(), record.size());

  Encoded encoded;
  if (!canonicalizer_.has_peers(changed_process)) {
    // Every class keeps the parent's canonical order, so the parent's
    // process order is canonical: patch the changed block in place.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t begin = record.size();
      if (i == changed) {
        encode_process_block(node, i, record);
      } else {
        // Unchanged process: its block is byte-identical to the parent's.
        record.insert(record.end(), parent + block_offsets_[i],
                      parent + block_offsets_[i + 1]);
      }
      fp.absorb(record.data() + begin, record.size() - begin);
    }
    for (std::size_t i = 0; i < n; ++i) record.push_back(node.steps_in_run[i]);
  } else {
    // Re-insert the changed block at its rank among its class, then write
    // the blocks and sidecar in that order, absorbing each block as written.
    block_.clear();
    encode_process_block(node, changed, block_);
    encoded.permuted =
        canonicalizer_.reinsert(parent, block_offsets_, changed_process, block_.data(),
                                block_.size(), node.steps_in_run[changed], order_);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t begin = record.size();
      const auto src = static_cast<std::size_t>(order_[i]);
      if (src == changed) {
        record.insert(record.end(), block_.begin(), block_.end());
      } else {
        record.insert(record.end(), parent + block_offsets_[src],
                      parent + block_offsets_[src + 1]);
      }
      fp.absorb(record.data() + begin, record.size() - begin);
    }
    for (std::size_t i = 0; i < n; ++i) {
      record.push_back(node.steps_in_run[static_cast<std::size_t>(order_[i])]);
    }
  }
  encoded.fingerprint_length = record.size() - n;
  encoded.fingerprint = fp.finish(encoded.fingerprint_length);
  // Successor contract: patching or re-inserting against the canonical
  // parent must give exactly what encoding the node from scratch and
  // sorting it gives — record, fingerprint and hit flag alike.
  RCONS_DCHECK_MSG(matches_encode(node, record, encoded),
                   "successor encode diverged from encode() + canonicalize()");
  return encoded;
}

bool NodeCodec::matches_encode(const Node& node, const std::vector<Value>& record,
                               const Encoded& encoded) {
  std::vector<Value> reference;
  const Encoded expected = encode(node, reference);
  return reference == record && expected.fingerprint == encoded.fingerprint &&
         expected.fingerprint_length == encoded.fingerprint_length &&
         expected.permuted == encoded.permuted;
}

void NodeCodec::decode(const Value* record, std::size_t size, Node& out) {
  RCONS_ASSERT_MSG(size >= 2, "truncated node record");
  out.crashes_used = static_cast<int>(record[0]);
  const auto ndecisions = static_cast<std::size_t>(record[1]);
  std::size_t at = 2;
  RCONS_ASSERT_MSG(at + ndecisions <= size, "truncated node record");
  out.decisions.clear();
  for (std::size_t i = 0; i < ndecisions; ++i) out.decisions.push_back(record[at++]);
  at += out.memory.decode(record + at, size - at);
  header_end_ = at;

  // Whether records carry the at-most-once (ever, last) pair is a run-level
  // invariant reflected in the root-shaped scratch node.
  const std::size_t n = out.processes.size();
  const bool track_outputs = !out.ever_output.empty();
  block_offsets_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    block_offsets_.push_back(at);
    RCONS_ASSERT_MSG(at < size, "truncated node record");
    out.done[i] = record[at++] != 0 ? 1 : 0;
    if (track_outputs) {
      RCONS_ASSERT_MSG(at + 1 < size, "truncated node record");
      out.ever_output[i] = record[at++] != 0 ? 1 : 0;
      out.last_output[i] = record[at++];
    }
    at += out.processes[i].decode(record + at, size - at);
  }
  block_offsets_.push_back(at);
  for (std::size_t i = 0; i < n; ++i) {
    RCONS_ASSERT_MSG(at < size, "truncated node record");
    out.steps_in_run[i] = static_cast<std::int64_t>(record[at++]);
  }
  RCONS_ASSERT_MSG(at == size, "node record has trailing values");
}

void NodeCodec::restore(const Value* record, std::size_t size, Node& out,
                        int dirty) {
  if (dirty == kDirtyAll) {
    decode(record, size, out);
    return;
  }
  const std::size_t n = out.processes.size();
  RCONS_ASSERT_MSG(block_offsets_.size() == n + 1,
                   "restore needs the record's captured layout");
  RCONS_ASSERT(size == block_offsets_[n] + n);

  // Shared flat fields are always refilled — any event can touch them.
  out.crashes_used = static_cast<int>(record[0]);
  const auto ndecisions = static_cast<std::size_t>(record[1]);
  out.decisions.clear();
  for (std::size_t i = 0; i < ndecisions; ++i) out.decisions.push_back(record[2 + i]);
  out.memory.decode(record + 2 + ndecisions, size - 2 - ndecisions);

  const bool track_outputs = !out.ever_output.empty();
  const std::size_t sidecar = block_offsets_[n];
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t at = block_offsets_[i];
    out.done[i] = record[at++] != 0 ? 1 : 0;
    if (track_outputs) {
      out.ever_output[i] = record[at++] != 0 ? 1 : 0;
      out.last_output[i] = record[at++];
    }
    // Program state: only the dirtied process actually diverged from the
    // record; everyone else's object is already byte-equivalent.
    if (static_cast<int>(i) == dirty) {
      out.processes[i].decode(record + at, size - at);
    }
    out.steps_in_run[i] = static_cast<std::int64_t>(record[sidecar + i]);
  }
}

int NodeCodec::orbit_skip_mask(const Value* record,
                               std::vector<std::uint8_t>& skip) const {
  return canonicalizer_.orbit_mask(record, block_offsets_, skip);
}

// --- NodeStore --------------------------------------------------------------

NodeStore::NodeStore(int shard_bits, std::uint64_t expected_states, int num_arenas)
    : shard_bits_(shard_bits) {
  RCONS_ASSERT_MSG(shard_bits >= 0 && shard_bits <= 16,
                   "shard_bits must be in [0, 16]");
  RCONS_ASSERT_MSG(num_arenas >= 1, "need at least one arena");
  const std::size_t count = std::size_t{1} << shard_bits;
  const std::uint64_t expected_per_shard = expected_states / count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(expected_per_shard));
  }
  arenas_.reserve(static_cast<std::size_t>(num_arenas));
  for (int i = 0; i < num_arenas; ++i) arenas_.push_back(std::make_unique<Arena>());
}

Value* NodeStore::arena_refill(Arena& arena, std::size_t need) {
  RCONS_ASSERT_MSG(need <= kChunkValues, "node record exceeds chunk size");
  // Cold path: one lock per kChunkValues interned values per worker, the
  // arena analogue of the index's growth mutex. The bump pointer handoff to
  // readers stays lock-free — records become visible through the index
  // slot's release-publish, never through this lock.
  // rcons-lint: allow(hot-path-no-mutex) one lock per kChunkValues interned values, arena refill only
  std::lock_guard<std::mutex> lock(chunk_mu_);
  chunks_.push_back(std::make_unique<Value[]>(kChunkValues));
  arena.cur = chunks_.back().get();
  arena.end = arena.cur + kChunkValues;
  return arena.cur;
}

NodeStore::Intern NodeStore::intern(util::U128 fingerprint,
                                    const std::vector<Value>& record, int arena_index,
                                    CasTable::OpStats* stats) {
  RCONS_ASSERT(arena_index >= 0 &&
               static_cast<std::size_t>(arena_index) < arenas_.size());
  Arena& arena = *arenas_[static_cast<std::size_t>(arena_index)];
  Shard& shard = *shards_[shard_index(fingerprint)];
  const std::size_t length = record.size();

  // The record copy is staged from the caller's private arena only inside
  // the claimed window — after the lock-free duplicate check — so a
  // duplicate intern never copies and never allocates.
  const CasTable::Found found = shard.index.insert_with(
      fingerprint,
      [&]() -> std::uint64_t {
        Value* header = arena.cur;
        if (header == nullptr ||
            static_cast<std::size_t>(arena.end - header) < length + 1) {
          header = arena_refill(arena, length + 1);
        }
        header[0] = static_cast<Value>(length);
        std::memcpy(header + 1, record.data(), length * sizeof(Value));
        arena.cur = header + 1 + length;
        return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(header));
      },
      stats);

  const Value* header =
      reinterpret_cast<const Value*>(static_cast<std::uintptr_t>(found.value));
  return Intern{found.value, found.inserted, header + 1,
                static_cast<std::uint32_t>(header[0])};
}

void NodeStore::fetch(NodeId id, std::vector<Value>& out) const {
  const Value* header =
      reinterpret_cast<const Value*>(static_cast<std::uintptr_t>(id));
  RCONS_ASSERT(header != nullptr);
  const auto length = static_cast<std::size_t>(header[0]);
  out.assign(header + 1, header + 1 + length);
}

std::uint64_t NodeStore::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index.size();
  return total;
}

std::uint64_t NodeStore::rehashes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index.rehashes();
  return total;
}

void NodeStore::reshard(int shard_bits, int num_arenas) {
  RCONS_ASSERT_MSG(shard_bits >= 0 && shard_bits <= 16, "shard_bits must be in [0, 16]");
  while (arenas_.size() < static_cast<std::size_t>(num_arenas)) {
    arenas_.push_back(std::make_unique<Arena>());
  }
  if (shard_bits == shard_bits_) return;
  const std::size_t count = std::size_t{1} << shard_bits;
  const std::uint64_t expected_per_shard = size() / count;
  std::vector<std::unique_ptr<Shard>> old_shards = std::move(shards_);
  shards_.clear();
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(expected_per_shard));
  }
  shard_bits_ = shard_bits;
  // A key a partial growth sweep carried over appears twice with the same
  // record address; the second insert finds it.
  for (const std::unique_ptr<Shard>& old : old_shards) {
    old->index.for_each_published([&](util::U128 key, std::uint64_t value) {
      shards_[shard_index(key)]->index.insert(key, value);
    });
  }
}

}  // namespace rcons::engine
