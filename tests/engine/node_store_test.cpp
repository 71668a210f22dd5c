// Unit tests of the interned node representation: NodeStore intern round
// trips (through the resident record views) and writes only new records,
// the two-level fingerprint, NodeCodec encode/decode inversion (against the
// engine::encode_node image and its segments), successor pieces, the
// Canonicalizer's symmetry reduction
// (full sort and successor re-insertion, with pinned hit counts).
#include "engine/node_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "check/spec_system.hpp"
#include "engine/expand.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "support/programs.hpp"
#include "support/smaps.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

util::U128 key(std::uint64_t i) {
  return util::U128{util::mix64(i), util::mix64(i + 0x9876ULL)};
}

std::vector<typesys::Value> record_of(std::uint64_t i, std::size_t length) {
  std::vector<typesys::Value> record;
  for (std::size_t k = 0; k < length; ++k) {
    record.push_back(static_cast<typesys::Value>(i * 100 + k));
  }
  return record;
}

// Per-process successors a walk compared, tallied by how the changed block
// relates to its class peers afterwards.
struct SuccessorTally {
  std::uint64_t compared = 0;
  std::uint64_t permuted = 0;
  std::uint64_t sidecar_ties = 0;  // a peer has the same block, another step count
  std::uint64_t full_ties = 0;     // a peer has the same block and step count
};

// Walks every reachable canonical record — deduplicated on the whole record,
// sidecar included, so every step-count variant of a state is expanded too —
// and checks each per-process successor's encode_successor() against
// encode() of the same scratch node: same record, fingerprint, fingerprint
// length and hit flag. Each successor's Delta, kept in one piece buffer per
// parent as the batched order keeps them, must also materialize that record
// once every successor of the parent is built.
SuccessorTally expect_successors_match_encode(const sim::Memory& memory,
                                              const std::vector<sim::Process>& processes,
                                              const std::vector<int>& classes,
                                              const sim::ExplorerConfig& config) {
  const Node root = make_root(memory, processes, config.properties);
  NodeCodec codec(classes);
  NodeCodec reference(classes);
  Node node = root;
  std::vector<typesys::Value> successor;
  std::vector<typesys::Value> expected;
  codec.encode(root, successor);
  std::set<std::vector<typesys::Value>> seen{successor};
  std::vector<std::vector<typesys::Value>> stack{successor};
  std::vector<Event> events;
  std::vector<typesys::Value> block;
  std::vector<typesys::Value> peer;
  std::vector<typesys::Value> pieces;
  std::vector<NodeCodec::Delta> deltas;
  std::vector<std::vector<typesys::Value>> records;
  NodeCodec lazy(classes);
  SuccessorTally tally;
  while (!stack.empty()) {
    const std::vector<typesys::Value> parent = std::move(stack.back());
    stack.pop_back();
    codec.decode(parent.data(), parent.size(), node);
    Node lazy_node = node;
    lazy.decode(parent.data(), parent.size(), lazy_node);
    enumerate_events(node, config, events);
    pieces.clear();
    deltas.clear();
    records.clear();
    int dirty = NodeCodec::kDirtyNone;
    for (const Event& event : events) {
      if (dirty != NodeCodec::kDirtyNone) {
        codec.restore(parent.data(), parent.size(), node, dirty);
      }
      dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
      if (apply_event(node, event, config)) continue;
      deltas.push_back(lazy.encode_delta(
          node, event.kind == Event::Kind::kCrashAll ? NodeCodec::kWhole : event.process,
          pieces));
      if (event.kind == Event::Kind::kCrashAll) {
        const NodeCodec::Encoded want = codec.encode(node, successor);
        EXPECT_EQ(deltas.back().fingerprint, want.fingerprint);
      } else {
        const NodeCodec::Encoded got = codec.encode_successor(
            parent.data(), parent.size(), node, event.process, successor);
        const NodeCodec::Encoded want = reference.encode(node, expected);
        EXPECT_EQ(successor, expected);
        EXPECT_EQ(got.fingerprint, want.fingerprint);
        EXPECT_EQ(got.fingerprint_length, want.fingerprint_length);
        EXPECT_EQ(got.permuted, want.permuted);
        tally.compared += 1;
        if (got.permuted) tally.permuted += 1;

        const auto p = static_cast<std::size_t>(event.process);
        block.clear();
        encode_process_block(node, p, block);
        for (std::size_t q = 0; q < classes.size(); ++q) {
          if (q == p || classes[q] != classes[p]) continue;
          peer.clear();
          encode_process_block(node, q, peer);
          if (peer != block) continue;
          if (node.steps_in_run[q] == node.steps_in_run[p]) {
            tally.full_ties += 1;
          } else {
            tally.sidecar_ties += 1;
          }
        }
      }
      EXPECT_EQ(deltas.back().length, successor.size());
      records.push_back(successor);
      if (seen.insert(successor).second) stack.push_back(successor);
    }
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      std::vector<typesys::Value> materialized(deltas[i].length);
      lazy.materialize(pieces.data(), deltas[i], materialized.data());
      EXPECT_EQ(materialized, records[i]);
    }
  }
  return tally;
}

// The two-level fingerprint over explicit segments: the digest of each,
// absorbed in order.
util::U128 fingerprint_of(const std::vector<std::vector<typesys::Value>>& segments) {
  FpStream fp;
  for (const std::vector<typesys::Value>& segment : segments) {
    fp.absorb(segment_digest(segment.data(), segment.size()));
  }
  return fp.finish();
}

// The reference fingerprint of a node: its header segment, then each process
// block in process order, as encode_node() lays them out.
util::U128 reference_fingerprint(const Node& node) {
  std::vector<std::vector<typesys::Value>> segments(1);
  encode_node_header(node, segments[0]);
  for (std::size_t i = 0; i < node.processes.size(); ++i) {
    encode_process_block(node, i, segments.emplace_back());
  }
  return fingerprint_of(segments);
}

// The system a spec line describes, with its crash model, budget, properties
// and symmetry declaration copied into `config`.
check::ScenarioSystem spec_system(const std::string& line, sim::ExplorerConfig& config) {
  check::ScenarioSpec spec;
  std::vector<std::string> errors;
  check::parse_scenario_line(line, spec, errors);
  EXPECT_TRUE(errors.empty());
  config.crash_model = spec.crash_model;
  config.crash_budget = spec.crash_budget;
  check::ScenarioSystem system = check::build_spec_system(spec);
  config.properties = system.properties;
  config.symmetry_classes = system.symmetry_classes;
  return system;
}

TEST(NodeStoreTest, InternRoundTripsRecords) {
  NodeStore store(0);
  std::vector<NodeStore::Intern> views;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto interned = store.intern(key(i), record_of(i, 5 + i % 7));
    EXPECT_TRUE(interned.inserted);
    views.push_back(interned);
  }
  EXPECT_EQ(store.size(), 50u);

  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::vector<typesys::Value> resident(views[i].record,
                                               views[i].record + views[i].length);
    EXPECT_EQ(resident, record_of(i, 5 + i % 7)) << "record " << i;
  }
}

TEST(NodeStoreTest, DuplicateInternReturnsExistingId) {
  NodeStore store(0);
  const auto first = store.intern(key(7), record_of(7, 4));
  const auto second = store.intern(key(7), record_of(7, 4));
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.record, second.record);  // the resident record, not a copy
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStoreTest, InternWritesARecordOnlyWhenItIsNew) {
  NodeStore store(0);
  int writes = 0;
  const std::vector<typesys::Value> record = record_of(3, 6);
  const auto write = [&](typesys::Value* out) {
    writes += 1;
    std::copy(record.begin(), record.end(), out);
  };
  const NodeStore::Intern first = store.intern(key(3), 6, write, 0, nullptr);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(std::vector<typesys::Value>(first.record, first.record + first.length), record);
  // A duplicate writes nothing and answers with the resident record.
  const NodeStore::Intern again = store.intern(key(3), 6, write, 0, nullptr);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(again.record, first.record);
}

TEST(NodeStoreTest, InternViewsCarryRecordLengths) {
  // The traversals count store bytes from these lengths (Tally::store_bytes).
  NodeStore store(0);
  EXPECT_EQ(store.intern(key(1), record_of(1, 10)).length, 10u);
  EXPECT_EQ(store.intern(key(2), record_of(2, 6)).length, 6u);
  EXPECT_EQ(store.intern(key(1), record_of(1, 10)).length, 10u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(NodeStoreTest, ConcurrentInternsAgreeOnWinners) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 2000;
  // One bump arena per thread: arenas are single-owner by contract (the
  // explorers hand each worker its own index), so racing threads must not
  // share arena 0.
  NodeStore store(0, /*expected_states=*/0, /*num_arenas=*/kThreads);
  std::vector<std::uint64_t> duplicates(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &duplicates, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        if (!store.intern(key(i), record_of(i, 3), t).inserted) {
          duplicates[static_cast<std::size_t>(t)] += 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(store.size(), kKeys);
  std::uint64_t total_duplicates = 0;
  for (const std::uint64_t count : duplicates) total_duplicates += count;
  EXPECT_EQ(total_duplicates, (kThreads - 1) * kKeys);

  const auto again = store.intern(key(123), record_of(123, 3));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(std::vector<typesys::Value>(again.record, again.record + again.length),
            record_of(123, 3));
}

TEST(NodeStoreTest, SmallStoresKeepSmallRecordChunks) {
  // Chunks grow only after the first four: a check of a few thousand states
  // keeps 128 KiB chunks.
  NodeStore store(0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store.intern(key(i), record_of(i, 8)).inserted);
  }
  const std::vector<std::size_t> chunks = store.chunk_bytes();
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 4u);
  for (const std::size_t bytes : chunks) EXPECT_EQ(bytes, std::size_t{128} << 10);
  const auto again = store.intern(key(4321), record_of(4321, 8));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(std::vector<typesys::Value>(again.record, again.record + again.length),
            record_of(4321, 8));
}

TEST(NodeStoreTest, LargeStoresMapHugePageEligibleRecordChunks) {
  // Past 8 MiB of records the chunks are 2 MiB, mapped and advised
  // MADV_HUGEPAGE, and records written into them read back whole.
  const std::string mode = test::huge_page_mode();
  if (mode.empty() || mode == "never") {
    GTEST_SKIP() << "transparent huge pages are off or not reported";
  }
  NodeStore store(0);
  constexpr std::uint64_t kRecords = 70'000;
  constexpr std::size_t kLength = 16;  // 70,000 records of 128 B: 8.5 MiB
  NodeStore::Intern last;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    last = store.intern(key(i), record_of(i, kLength));
    ASSERT_TRUE(last.inserted);
  }
  const std::vector<std::size_t> chunks = store.chunk_bytes();
  std::size_t total = 0;
  for (const std::size_t bytes : chunks) total += bytes;
  EXPECT_GT(total, std::size_t{8} << 20);
  ASSERT_EQ(chunks.back(), std::size_t{2} << 20);
  EXPECT_EQ(std::count(chunks.begin(), chunks.end(), std::size_t{128} << 10), 4);

  // The last record lies in the last chunk, a mapping of its own.
  const auto [begin, mapping] = test::mapping_of(last.record);
  ASSERT_NE(begin, 0u) << "/proc/self/smaps is not readable";
  EXPECT_GE(mapping.bytes, std::size_t{2} << 20);
  EXPECT_TRUE(mapping.huge_page_eligible) << std::hex << begin;
  for (const std::uint64_t i : {std::uint64_t{0}, kRecords / 2, kRecords - 1}) {
    const auto again = store.intern(key(i), record_of(i, kLength));
    EXPECT_FALSE(again.inserted);
    EXPECT_EQ(std::vector<typesys::Value>(again.record, again.record + again.length),
              record_of(i, kLength));
  }
}

TEST(NodeStoreTest, AddedArenasKeepEveryRecordInPlace) {
  // A one-arena probe store given arenas for parallel workers: every record
  // keeps its address and is still found, the index keeps its growth epochs,
  // and the new arenas intern new records.
  NodeStore store(0);
  constexpr std::uint64_t kKeys = 3000;  // past several growth epochs
  std::vector<NodeStore::Intern> interned;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    interned.push_back(store.intern(key(i), record_of(i, 3)));
  }
  const std::uint64_t rehashes = store.rehashes();
  store.add_arenas(3);
  EXPECT_EQ(store.num_arenas(), 3);
  EXPECT_EQ(store.size(), kKeys);
  EXPECT_EQ(store.rehashes(), rehashes);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const NodeStore::Intern again = store.intern(key(i), record_of(i, 3), 1);
    ASSERT_FALSE(again.inserted) << i;
    ASSERT_EQ(again.record, interned[i].record) << i;
  }
  for (const int arena : {1, 2}) {
    const std::uint64_t k = kKeys + static_cast<std::uint64_t>(arena);
    const NodeStore::Intern fresh = store.intern(key(k), record_of(k, 4), arena);
    EXPECT_TRUE(fresh.inserted) << arena;
    EXPECT_EQ(std::vector<typesys::Value>(fresh.record, fresh.record + fresh.length),
              record_of(k, 4));
    EXPECT_EQ(store.intern(key(k), record_of(k, 4), 0).record, fresh.record) << arena;
  }
  EXPECT_EQ(store.size(), kKeys + 2);
}

TEST(NodeStoreTest, DuplicateInternsReturnTheResidentLengthAcrossGrowthAndNewArenas) {
  // Varied record lengths, interned into a minimal store (several index
  // growth epochs), which then gains an arena. A duplicate intern answers
  // from the index slot alone: it must report the resident record's length
  // even when the caller's record differs, and the view must still cover
  // that record.
  const auto length_of = [](std::uint64_t i) { return std::size_t{2} + i % 29; };
  NodeStore store(0);
  constexpr std::uint64_t kKeys = 5000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store.intern(key(i), record_of(i, length_of(i))).inserted) << i;
  }
  EXPECT_GT(store.rehashes(), 0u);
  const auto expect_resident = [&](int arena) {
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const NodeStore::Intern again = store.intern(key(i), record_of(i, 1), arena);
      ASSERT_FALSE(again.inserted) << i;
      ASSERT_EQ(again.length, length_of(i)) << i;
      ASSERT_EQ(std::vector<typesys::Value>(again.record, again.record + again.length),
                record_of(i, length_of(i)))
          << i;
    }
  };
  expect_resident(0);
  store.add_arenas(2);
  expect_resident(1);

  // The checkpoint walk reads the same lengths, each record once.
  std::uint64_t records = 0;
  store.for_each_record([&](util::U128 fp, const typesys::Value* values, std::uint32_t length) {
    records += 1;
    const auto i = static_cast<std::uint64_t>(values[0]) / 100;  // see record_of
    EXPECT_EQ(fp.lo, key(i).lo);
    EXPECT_EQ(length, length_of(i));
  });
  EXPECT_EQ(records, kKeys);
}

// Every segment boundary, the order of the segments and each one's length
// enter the fingerprint, not only the values in record order.
TEST(FingerprintTest, SegmentBoundariesOrderAndLengthsChangeTheFingerprint) {
  using Segments = std::vector<std::vector<typesys::Value>>;
  const Segments base = {{0, 1, 7}, {1, 2, 3}, {4, 5}};
  const util::U128 fp = fingerprint_of(base);
  EXPECT_EQ(fingerprint_of(Segments{{0, 1, 7}, {1, 2, 3}, {4, 5}}), fp);
  // A value moved across a block boundary, and across the header's.
  EXPECT_NE(fingerprint_of(Segments{{0, 1, 7}, {1, 2}, {3, 4, 5}}), fp);
  EXPECT_NE(fingerprint_of(Segments{{0, 1}, {7, 1, 2, 3}, {4, 5}}), fp);
  // Two unequal blocks swapped; equal blocks swap to the same fingerprint.
  EXPECT_NE(fingerprint_of(Segments{{0, 1, 7}, {4, 5}, {1, 2, 3}}), fp);
  EXPECT_EQ(fingerprint_of(Segments{{0}, {4, 5}, {4, 5}}),
            fingerprint_of(Segments{{0}, {4, 5}, {4, 5}}));
  // Only a block's length changed: a trailing zero, or an empty block.
  EXPECT_NE(fingerprint_of(Segments{{0, 1, 7}, {1, 2, 3, 0}, {4, 5}}), fp);
  EXPECT_NE(fingerprint_of(Segments{{0, 1, 7}, {}, {4, 5}}),
            fingerprint_of(Segments{{0, 1, 7}, {0}, {4, 5}}));
  // fingerprint_values() is the fingerprint of one segment.
  const std::vector<typesys::Value> flat = {0, 1, 7, 1, 2, 3, 4, 5};
  EXPECT_EQ(fingerprint_values(flat.data(), flat.size()), fingerprint_of(Segments{flat}));
  EXPECT_NE(fingerprint_values(flat.data(), flat.size()), fp);
}

// Encode/decode must be mutually inverse, the record's canonical prefix must
// be exactly the encode_node() image of the same node (the record minus its
// sidecar), and the fingerprint must be the two-level one over that image's
// segments.
TEST(NodeCodecTest, EncodeDecodeRoundTripsAndMatchesTheTwoLevelFingerprint) {
  rc::NaiveRegisterSystem system = rc::make_naive_register_system(2);
  Node root = make_root(system.memory, system.processes);

  sim::ExplorerConfig config;
  config.crash_budget = 1;

  // Drive the root into a nontrivial state: p0 steps, p1 steps, p0 crashes.
  Node state = root;
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kStep, 0}, config));
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kStep, 1}, config));
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kCrash, 0}, config));

  NodeCodec codec;
  std::vector<typesys::Value> record;
  const NodeCodec::Encoded encoded = codec.encode(state, record);
  EXPECT_FALSE(encoded.permuted);

  std::vector<typesys::Value> image;
  encode_node(state, image);
  EXPECT_EQ(encoded.fingerprint_length, image.size());
  EXPECT_TRUE(std::equal(image.begin(), image.end(), record.begin()));
  EXPECT_EQ(encoded.fingerprint, reference_fingerprint(state));

  // Decode into a scratch node that currently holds a different state.
  Node scratch = root;
  codec.decode(record.data(), record.size(), scratch);
  EXPECT_EQ(scratch.crashes_used, state.crashes_used);
  EXPECT_EQ(scratch.done, state.done);
  EXPECT_EQ(scratch.steps_in_run, state.steps_in_run);
  EXPECT_EQ(scratch.decisions, state.decisions);

  // Re-encoding the decoded node reproduces the identical record.
  std::vector<typesys::Value> record_again;
  const NodeCodec::Encoded encoded_again = codec.encode(scratch, record_again);
  EXPECT_EQ(record_again, record);
  EXPECT_EQ(encoded_again.fingerprint, encoded.fingerprint);
}

// Two processes with the same program and input are interchangeable: states
// that differ only by swapping them must canonicalize to one fingerprint.
TEST(CanonicalizerTest, SymmetricStatesFingerprintIdentically) {
  // Both processes propose the same value — identical programs.
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  Node root = make_root(memory, processes);

  sim::ExplorerConfig config;
  config.crash_budget = 0;

  Node stepped_p0 = root;
  EXPECT_FALSE(apply_event(stepped_p0, Event{Event::Kind::kStep, 0}, config));
  Node stepped_p1 = root;
  EXPECT_FALSE(apply_event(stepped_p1, Event{Event::Kind::kStep, 1}, config));

  const std::vector<int> classes = {0, 0};
  NodeCodec codec(classes);
  std::vector<typesys::Value> record_p0;
  std::vector<typesys::Value> record_p1;
  const NodeCodec::Encoded a = codec.encode(stepped_p0, record_p0);
  const NodeCodec::Encoded b = codec.encode(stepped_p1, record_p1);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(record_p0, record_p1);
  // Exactly one of the two orientations needed a permutation.
  EXPECT_NE(a.permuted, b.permuted);

  // Without the declaration the two states stay distinct.
  NodeCodec identity;
  std::vector<typesys::Value> raw_p0;
  std::vector<typesys::Value> raw_p1;
  EXPECT_NE(identity.encode(stepped_p0, raw_p0).fingerprint,
            identity.encode(stepped_p1, raw_p1).fingerprint);

  // The root is symmetric already: no permutation, no "hit".
  std::vector<typesys::Value> root_record;
  EXPECT_FALSE(codec.encode(root, root_record).permuted);
}

// Processes in different classes must never be permuted, even if their
// blocks would sort differently.
TEST(CanonicalizerTest, DifferentClassesAreNeverMixed) {
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 2));
  Node root = make_root(memory, processes);

  sim::ExplorerConfig config;
  config.crash_budget = 0;

  Node stepped_p0 = root;
  EXPECT_FALSE(apply_event(stepped_p0, Event{Event::Kind::kStep, 0}, config));
  Node stepped_p1 = root;
  EXPECT_FALSE(apply_event(stepped_p1, Event{Event::Kind::kStep, 1}, config));

  const std::vector<int> classes = {0, 1};  // distinct inputs → distinct classes
  NodeCodec codec(classes);
  std::vector<typesys::Value> record_p0;
  std::vector<typesys::Value> record_p1;
  const NodeCodec::Encoded a = codec.encode(stepped_p0, record_p0);
  const NodeCodec::Encoded b = codec.encode(stepped_p1, record_p1);
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_FALSE(a.permuted);
  EXPECT_FALSE(b.permuted);
}

// A successor of a canonical record re-inserts its one changed block at its
// rank instead of sorting the record; that must give exactly what a full
// encode() and sort of the same node gives, on every successor of a real
// team-consensus state space.
TEST(CanonicalizerTest, ReinsertedSuccessorsMatchFullEncodeOnTeamConsensus) {
  sim::ExplorerConfig config;
  const check::ScenarioSystem system =
      spec_system("type=Sn(3) n=3 model=independent budget=2 symmetry=on", config);
  ASSERT_FALSE(system.symmetry_classes.empty());
  const SuccessorTally tally = expect_successors_match_encode(
      system.memory, system.processes, system.symmetry_classes, config);
  EXPECT_GT(tally.compared, 10'000u);
  EXPECT_GT(tally.permuted, 0u);
  EXPECT_GT(tally.full_ties, 0u);
}

// Two classes plus a singleton: a changed block that ties a peer's block but
// not its step count is ordered by the sidecar, one that ties both keeps
// process-index order (the stable tiebreak), and the singleton's successors
// take the in-place patch while the other classes stay canonical.
TEST(CanonicalizerTest, ReinsertedSuccessorsMatchFullEncodeAcrossClasses) {
  sim::Memory memory;
  const sim::RegId spin = memory.add_register();
  const sim::RegId race = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(test::Spinner{spin, 0});
  processes.emplace_back(test::Spinner{spin, 0});
  processes.emplace_back(test::BrokenConsensus{race, 1, 0});
  processes.emplace_back(test::BrokenConsensus{race, 1, 0});
  processes.emplace_back(test::BrokenConsensus{race, 2, 0});
  const std::vector<int> classes = {0, 0, 1, 1, 2};

  sim::ExplorerConfig config;
  config.crash_budget = 2;
  config.max_steps_per_run = 3;  // bounds the spinners' step counts
  config.properties.valid_outputs = {1, 2};
  config.properties.add({sim::PropertyKind::kAtMostOnceDecide, 0});

  const SuccessorTally tally =
      expect_successors_match_encode(memory, processes, classes, config);
  EXPECT_GT(tally.compared, 1'000u);
  EXPECT_GT(tally.permuted, 0u);
  EXPECT_GT(tally.sidecar_ties, 0u);
  EXPECT_GT(tally.full_ties, 0u);
}

// Visited states and canonicalization hits of the depth-first traversal
// under symmetry reduction. Hits count permuted successors, so they pin the
// successor path's hit flag as well as the reduction itself.
TEST(CanonicalizerTest, SequentialDfsVisitedAndCanonicalHitsArePinned) {
  struct Pin {
    const char* line;
    std::uint64_t visited;
    std::uint64_t canonical_hits;
  };
  for (const Pin& pin : {Pin{"type=Sn(4) n=4 model=independent budget=1 symmetry=on",
                             8'987, 11'195},
                         Pin{"type=Sn(3) n=3 model=independent budget=2 symmetry=on",
                             3'429, 2'461}}) {
    SCOPED_TRACE(pin.line);
    sim::ExplorerConfig config;
    check::CheckRequest request;
    request.system = spec_system(pin.line, config);
    request.budget.crash_model = config.crash_model;
    request.budget.crash_budget = config.crash_budget;
    request.strategy = check::Strategy::kSequentialDFS;
    const check::CheckReport report = check::check(std::move(request));
    EXPECT_TRUE(report.clean);
    EXPECT_EQ(report.stats.visited, pin.visited);
    EXPECT_EQ(report.stats.canonical_hits, pin.canonical_hits);
  }
}

TEST(NodeCodecTest, TeamConsensusSystemsDeclareUsableSymmetry) {
  // Sn(4) with 4 roles: same-team roles share the witness op for S_n (only
  // opA/opB exist), so at least one class has two members and the explorers
  // can canonicalize. This is the bench's acceptance scenario.
  auto type = typesys::make_type("Sn(4)");
  ASSERT_NE(type, nullptr);
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 4, 101, 202);
  ASSERT_EQ(system.symmetry_classes.size(), 4u);

  std::vector<int> class_sizes(system.symmetry_classes.size(), 0);
  for (const int cls : system.symmetry_classes) {
    ASSERT_GE(cls, 0);
    ASSERT_LT(cls, static_cast<int>(class_sizes.size()));
    class_sizes[static_cast<std::size_t>(cls)] += 1;
  }
  int largest = 0;
  for (const int size : class_sizes) largest = std::max(largest, size);
  EXPECT_GE(largest, 2) << "no interchangeable roles — canonicalization inert";
}

}  // namespace
}  // namespace rcons::engine
