// Unit tests of the interned node representation: NodeStore intern/fetch
// round trips, NodeCodec encode/decode inversion (including fingerprint
// parity with engine::encode_node), the Canonicalizer's symmetry reduction
// (full sort and successor re-insertion, with pinned hit counts),
// and pick_shard_bits.
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
// length and hit flag.
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
  SuccessorTally tally;
  while (!stack.empty()) {
    const std::vector<typesys::Value> parent = std::move(stack.back());
    stack.pop_back();
    codec.decode(parent.data(), parent.size(), node);
    enumerate_events(node, config, events);
    int dirty = NodeCodec::kDirtyNone;
    for (const Event& event : events) {
      if (dirty != NodeCodec::kDirtyNone) {
        codec.restore(parent.data(), parent.size(), node, dirty);
      }
      dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
      if (apply_event(node, event, config)) continue;
      if (event.kind == Event::Kind::kCrashAll) {
        codec.encode(node, successor);
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
      if (seen.insert(successor).second) stack.push_back(successor);
    }
  }
  return tally;
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
  NodeStore store(2);
  std::vector<NodeStore::NodeId> ids;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto interned = store.intern(key(i), record_of(i, 5 + i % 7));
    EXPECT_TRUE(interned.inserted);
    ids.push_back(interned.id);
  }
  EXPECT_EQ(store.size(), 50u);

  std::vector<typesys::Value> fetched;
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.fetch(ids[i], fetched);
    EXPECT_EQ(fetched, record_of(i, 5 + i % 7)) << "record " << i;
  }
}

TEST(NodeStoreTest, DuplicateInternReturnsExistingId) {
  NodeStore store(0);
  const auto first = store.intern(key(7), record_of(7, 4));
  const auto second = store.intern(key(7), record_of(7, 4));
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStoreTest, InternViewsCarryRecordLengths) {
  // The traversals count store bytes from these lengths (Tally::store_bytes).
  NodeStore store(1);
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
  NodeStore store(4, /*expected_states=*/0, /*num_arenas=*/kThreads);
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

  std::vector<typesys::Value> fetched;
  const auto again = store.intern(key(123), record_of(123, 3));
  EXPECT_FALSE(again.inserted);
  store.fetch(again.id, fetched);
  EXPECT_EQ(fetched, record_of(123, 3));
}

TEST(NodeStoreTest, ReshardKeepsEveryRecordInPlace) {
  // A single-shard probe store re-sharded for parallel workers: every record
  // keeps its address, lookups find it through the new shards, and the new
  // arenas intern new records.
  NodeStore store(0);
  constexpr std::uint64_t kKeys = 3000;  // past several growth epochs
  std::vector<NodeStore::Intern> interned;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    interned.push_back(store.intern(key(i), record_of(i, 3)));
  }
  store.reshard(4, 2);
  EXPECT_EQ(store.num_shards(), 16);
  EXPECT_EQ(store.num_arenas(), 2);
  EXPECT_EQ(store.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const NodeStore::Intern again = store.intern(key(i), record_of(i, 3), 1);
    ASSERT_FALSE(again.inserted) << i;
    ASSERT_EQ(again.record, interned[i].record) << i;
  }
  const NodeStore::Intern fresh = store.intern(key(kKeys), record_of(kKeys, 4), 1);
  EXPECT_TRUE(fresh.inserted);
  EXPECT_EQ(store.size(), kKeys + 1);
}

// Encode/decode must be mutually inverse, and the fingerprint must cover
// exactly the encode_node() image of the same node (the record minus its
// sidecar).
TEST(NodeCodecTest, EncodeDecodeRoundTripsAndMatchesEncodeNodeFingerprint) {
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
  EXPECT_EQ(encoded.fingerprint, fingerprint_values(image.data(), image.size()));

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

TEST(PickShardBitsTest, SingleWorkerGetsSequentialLayout) {
  EXPECT_EQ(pick_shard_bits(1, 0), 0);
  EXPECT_EQ(pick_shard_bits(1, 1'000'000'000), 0);
  EXPECT_EQ(pick_shard_bits(0, 1'000'000), 0);
}

TEST(PickShardBitsTest, ContentionBoundScalesWithThreads) {
  // Unknown state space: shards >= 8 * threads, rounded up to a power of two.
  EXPECT_EQ(pick_shard_bits(2, 0), 4);    // 16 shards
  EXPECT_EQ(pick_shard_bits(4, 0), 5);    // 32 shards
  EXPECT_EQ(pick_shard_bits(8, 0), 6);    // 64 shards
  EXPECT_EQ(pick_shard_bits(16, 0), 7);   // 128 shards
  EXPECT_EQ(pick_shard_bits(64, 0), 9);   // 512 shards
  // Monotone in the thread count.
  int previous = 0;
  for (int threads = 1; threads <= 128; threads *= 2) {
    const int bits = pick_shard_bits(threads, 0);
    EXPECT_GE(bits, previous) << threads;
    previous = bits;
  }
}

TEST(PickShardBitsTest, OccupancyCapShrinksSmallStateSpaces) {
  // A 1000-state space should not be spread over more than ~1000/64 shards.
  EXPECT_LE(pick_shard_bits(8, 1000), 4);
  // A tiny space degenerates to very few shards no matter the thread count.
  EXPECT_EQ(pick_shard_bits(64, 100), 0);
  // A huge space leaves the contention bound in charge.
  EXPECT_EQ(pick_shard_bits(8, 100'000'000), 6);
}

TEST(PickShardBitsTest, ResultAlwaysWithinSupportedRange) {
  for (const int threads : {1, 2, 7, 33, 1000, 100'000}) {
    for (const std::uint64_t states : {std::uint64_t{0}, std::uint64_t{1},
                                       std::uint64_t{1'000'000},
                                       ~std::uint64_t{0}}) {
      const int bits = pick_shard_bits(threads, states);
      EXPECT_GE(bits, 0) << threads << " " << states;
      EXPECT_LE(bits, 16) << threads << " " << states;
    }
  }
}

}  // namespace
}  // namespace rcons::engine
