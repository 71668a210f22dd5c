// rcons-lint: hot-path
#include "engine/node_store.hpp"

#include <sys/mman.h>

#include <cstring>
#include <map>
#include <new>

#include "util/assert.hpp"

namespace rcons::engine {

using typesys::Value;

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

std::size_t Canonicalizer::reinsert(const Value* parent,
                                    const std::vector<std::size_t>& block_offsets,
                                    int process, const Value* block, std::size_t block_size,
                                    Value steps) const {
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
  return to;
}

void Canonicalizer::reinsert_order(int process, std::size_t rank,
                                   std::vector<int>& order) const {
  const std::size_t n = num_processes_;
  const Member member = members_[static_cast<std::size_t>(process)];
  RCONS_ASSERT(member.group >= 0);
  const std::vector<int>& group = groups_[static_cast<std::size_t>(member.group)];
  const auto from = static_cast<std::size_t>(member.index);
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  // Members between the two slots shift by one toward the vacated slot.
  for (std::size_t j = rank; j < from; ++j) {
    order[static_cast<std::size_t>(group[j + 1])] = group[j];
  }
  for (std::size_t j = from; j < rank; ++j) {
    order[static_cast<std::size_t>(group[j])] = group[j + 1];
  }
  order[static_cast<std::size_t>(group[rank])] = process;
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
  encode_node_header(node, record);
  const util::U128 header = segment_digest(record.data(), record.size());

  const std::size_t n = node.processes.size();
  offsets_.clear();
  digests_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    offsets_.push_back(record.size());
    encode_process_block(node, i, record);
    // Digest the block while it is still cache-hot.
    digests_.push_back(segment_digest(record.data() + offsets_.back(),
                                      record.size() - offsets_.back()));
  }
  offsets_.push_back(record.size());
  for (std::size_t i = 0; i < n; ++i) record.push_back(node.steps_in_run[i]);

  Encoded encoded;
  encoded.permuted = canonicalizer_.canonicalize(record, offsets_);
  encoded.fingerprint_length = record.size() - n;
  // A canonical permutation moved whole blocks, so their digests are
  // absorbed in the order the blocks now have.
  FpStream fp;
  fp.absorb(header);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t source =
        encoded.permuted ? static_cast<std::size_t>(canonicalizer_.order()[i]) : i;
    fp.absorb(digests_[source]);
  }
  encoded.fingerprint = fp.finish();
  return encoded;
}

NodeCodec::Delta NodeCodec::encode_delta(const Node& node, int changed_process,
                                         std::vector<Value>& pieces) {
  Delta delta;
  delta.offset = static_cast<std::uint32_t>(pieces.size());
  if (changed_process == kWhole) {
    const Encoded encoded = encode(node, whole_);
    pieces.insert(pieces.end(), whole_.begin(), whole_.end());
    delta.fingerprint = encoded.fingerprint;
    delta.length = static_cast<std::uint32_t>(whole_.size());
    delta.header = delta.length;
    delta.permuted = encoded.permuted;
    return delta;
  }
  const std::size_t n = node.processes.size();
  RCONS_ASSERT_MSG(block_offsets_.size() == n + 1,
                   "encode_delta needs the parent's captured layout");
  RCONS_ASSERT(changed_process >= 0 && static_cast<std::size_t>(changed_process) < n);
  const auto changed = static_cast<std::size_t>(changed_process);

  encode_node_header(node, pieces);
  const std::size_t block_begin = pieces.size();
  encode_process_block(node, changed, pieces);
  delta.header = static_cast<std::uint32_t>(block_begin - delta.offset);
  delta.block = static_cast<std::uint32_t>(pieces.size() - block_begin);
  delta.process = changed_process;
  delta.steps = node.steps_in_run[changed];
  const std::size_t parent_blocks = block_offsets_[n] - header_end_;
  const std::size_t parent_block = block_offsets_[changed + 1] - block_offsets_[changed];
  delta.length = static_cast<std::uint32_t>(delta.header + parent_blocks - parent_block +
                                            delta.block + n);

  const Value* block = pieces.data() + block_begin;
  const util::U128 block_digest = segment_digest(block, delta.block);
  FpStream fp;
  fp.absorb(segment_digest(pieces.data() + delta.offset, delta.header));
  if (canonicalizer_.has_peers(changed_process)) {
    const std::size_t rank = canonicalizer_.reinsert(parent_, block_offsets_, changed_process,
                                                     block, delta.block, delta.steps);
    delta.rank = static_cast<std::uint32_t>(rank);
    delta.permuted = rank != canonicalizer_.position(changed_process);
  }
  if (!delta.permuted) {
    // Every class keeps the parent's canonical order: the changed block
    // keeps its position.
    for (std::size_t i = 0; i < n; ++i) fp.absorb(i == changed ? block_digest : block_digests_[i]);
  } else {
    canonicalizer_.reinsert_order(changed_process, delta.rank, order_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto source = static_cast<std::size_t>(order_[i]);
      fp.absorb(source == changed ? block_digest : block_digests_[source]);
    }
  }
  delta.fingerprint = fp.finish();
  // Successor contract: the pieces against the canonical parent must give
  // exactly what encoding the node from scratch and sorting it gives —
  // record, fingerprint and hit flag alike.
  RCONS_DCHECK_MSG(matches_encode(node, pieces.data(), delta),
                   "successor pieces diverged from encode() + canonicalize()");
  return delta;
}

void NodeCodec::materialize(const Value* pieces, const Delta& delta, Value* out) {
  const Value* const at = pieces + delta.offset;
  if (delta.process == kWhole) {
    std::memcpy(out, at, delta.length * sizeof(Value));
    return;
  }
  const std::size_t n = block_offsets_.size() - 1;
  const auto changed = static_cast<std::size_t>(delta.process);
  const auto copy = [&](const Value* from, std::size_t count) {
    std::memcpy(out, from, count * sizeof(Value));
    out += count;
  };
  copy(at, delta.header);
  const Value* block = at + delta.header;
  const std::size_t sidecar = block_offsets_[n];
  if (!delta.permuted) {
    // The blocks before the changed one, the changed block, then the blocks
    // after it with the sidecar, whose changed entry is patched.
    copy(parent_ + header_end_, block_offsets_[changed] - header_end_);
    copy(block, delta.block);
    copy(parent_ + block_offsets_[changed + 1], sidecar + n - block_offsets_[changed + 1]);
    *(out - n + changed) = delta.steps;
    return;
  }
  canonicalizer_.reinsert_order(delta.process, delta.rank, order_);
  for (std::size_t i = 0; i < n; ++i) {
    const auto source = static_cast<std::size_t>(order_[i]);
    if (source == changed) {
      copy(block, delta.block);
    } else {
      copy(parent_ + block_offsets_[source], block_offsets_[source + 1] - block_offsets_[source]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto source = static_cast<std::size_t>(order_[i]);
    *out++ = source == changed ? delta.steps : parent_[sidecar + source];
  }
}

NodeCodec::Encoded NodeCodec::encode_successor(const Value* parent, std::size_t parent_size,
                                               const Node& node, int changed_process,
                                               std::vector<Value>& record) {
  const std::size_t n = node.processes.size();
  RCONS_ASSERT_MSG(parent == parent_ && block_offsets_.size() == n + 1 &&
                       parent_size == block_offsets_[n] + n,
                   "encode_successor needs the parent's captured layout");
  pieces_.clear();
  const Delta delta = encode_delta(node, changed_process, pieces_);
  record.resize(delta.length);
  materialize(pieces_.data(), delta, record.data());
  return Encoded{delta.fingerprint, delta.length - n, delta.permuted};
}

bool NodeCodec::matches_encode(const Node& node, const Value* pieces, const Delta& delta) {
  std::vector<Value> record(delta.length);
  materialize(pieces, delta, record.data());
  std::vector<Value> reference;
  // encode() leaves the parent's layout, digests and order_ scratch alone.
  const Encoded expected = encode(node, reference);
  return reference == record && expected.fingerprint == delta.fingerprint &&
         expected.permuted == delta.permuted;
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
  parent_ = record;
  block_offsets_.clear();
  block_digests_.clear();
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
    // Digested once per expansion: every per-process successor reuses the
    // digests of the blocks it keeps (encode_delta).
    block_digests_.push_back(segment_digest(record + block_offsets_.back(),
                                            at - block_offsets_.back()));
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

NodeStore::NodeStore(int unused, std::uint64_t expected_states, int num_arenas)
    : index_(expected_states) {
  RCONS_ASSERT_MSG(unused == 0, "the store has one index; its first argument must be 0");
  RCONS_ASSERT_MSG(num_arenas >= 1, "need at least one arena");
  add_arenas(num_arenas);
}

void NodeStore::ChunkFree::operator()(Value* chunk) const {
  if (values == kMaxChunkValues) {
    ::munmap(chunk, values * sizeof(Value));
  } else {
    delete[] chunk;
  }
}

NodeStore::Chunk NodeStore::allocate_chunk(std::size_t values) {
  // Neither kind is zero-filled: `new Value[]` default-initializes.
  if (values < kMaxChunkValues) return Chunk(new Value[values], ChunkFree{values});
  void* memory = ::mmap(nullptr, values * sizeof(Value), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  // A hint, before the first touch; its failure leaves the 4 KiB pages.
  (void)::madvise(memory, values * sizeof(Value), MADV_HUGEPAGE);
#endif
  return Chunk(static_cast<Value*>(memory), ChunkFree{values});
}

void NodeStore::arena_refill(Arena& arena, std::size_t need) {
  RCONS_ASSERT_MSG(need <= kChunkValues, "node record exceeds chunk size");
  // Cold path: one lock per chunk, the arena analogue of the index's growth
  // mutex. The bump pointer handoff to readers stays lock-free — records
  // become visible through the index slot's release-publish, never through
  // this lock.
  // rcons-lint: allow(hot-path-no-mutex) one lock per record chunk, arena refill only
  std::lock_guard<std::mutex> lock(chunk_mu_);
  std::size_t values = kChunkValues;
  for (std::size_t i = kSmallChunks; i <= chunks_.size() && values < kMaxChunkValues; ++i) {
    values *= 2;
  }
  Chunk chunk = allocate_chunk(values);
  chunks_.push_back(std::move(chunk));
  arena.cur = chunks_.back().get();
  arena.end = arena.cur + values;
}

std::vector<std::size_t> NodeStore::chunk_bytes() const {
  // rcons-lint: allow(hot-path-no-mutex) quiescent inspection, never per-intern
  std::lock_guard<std::mutex> lock(chunk_mu_);
  std::vector<std::size_t> bytes;
  for (const Chunk& chunk : chunks_) bytes.push_back(chunk.get_deleter().values * sizeof(Value));
  return bytes;
}

void NodeStore::add_arenas(int num_arenas) {
  while (arenas_.size() < static_cast<std::size_t>(num_arenas)) {
    arenas_.push_back(std::make_unique<Arena>());
  }
}

}  // namespace rcons::engine
