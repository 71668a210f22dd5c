#include "engine/cas_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/smaps.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

namespace {

util::U128 key(std::uint64_t i) {
  return util::U128{util::mix64(i), util::mix64(i + 0xabcd'1234ULL)};
}

TEST(CasTableTest, InsertFindAndDuplicates) {
  CasTable table;
  EXPECT_TRUE(table.insert(key(1), 11).inserted);
  EXPECT_TRUE(table.insert(key(2), 22).inserted);

  // A duplicate loses and reports the resident value, not its own.
  const CasTable::Found dup = table.insert(key(1), 99);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(dup.value, 11u);

  CasTable::Found found;
  EXPECT_TRUE(table.find(key(2), found));
  EXPECT_EQ(found.value, 22u);
  EXPECT_TRUE(table.contains(key(1)));
  EXPECT_FALSE(table.contains(key(3)));
  EXPECT_EQ(table.size(), 2u);
}

TEST(CasTableTest, AllZeroKeyIsAnOrdinaryKey) {
  // The slot encoding must not confuse U128{0,0} with an EMPTY slot: presence
  // is carried by the tag, never by the key bytes.
  CasTable table;
  EXPECT_TRUE(table.insert(util::U128{0, 0}, 7).inserted);
  CasTable::Found found;
  EXPECT_TRUE(table.find(util::U128{0, 0}, found));
  EXPECT_EQ(found.value, 7u);
  EXPECT_FALSE(table.insert(util::U128{0, 0}, 8).inserted);
  EXPECT_EQ(table.size(), 1u);
}

TEST(CasTableTest, GrowthKeepsEveryKeyAndValue) {
  CasTable table;  // minimal capacity: forces several growths
  constexpr std::uint64_t kKeys = 20'000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const CasTable::Found found = table.insert(key(i), i, static_cast<std::uint32_t>(i * 3));
    ASSERT_TRUE(found.inserted) << i;
    // The one inserter grows as soon as an insert reports the threshold.
    if (found.grow_due) table.grow();
  }
  // 16 slots doubled to 32,768, the first array large enough to be mapped.
  EXPECT_EQ(table.rehashes(), 11u);
  EXPECT_EQ(table.capacity(), std::size_t{1} << 15);
  EXPECT_EQ(table.size(), kKeys);
  // Every key survived every rehash with its original payload.
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
    ASSERT_EQ(found.meta, i * 3) << i;
  }
  // And duplicates still lose against the rehashed originals.
  for (std::uint64_t i = 0; i < kKeys; i += 97) {
    const CasTable::Found dup = table.insert(key(i), ~i, 7);
    EXPECT_FALSE(dup.inserted);
    EXPECT_EQ(dup.value, i);
    EXPECT_EQ(dup.meta, i * 3);
  }
}

TEST(CasTableTest, PresizedTableNeverReportsAGrowth) {
  CasTable table(/*expected=*/10'000);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_FALSE(table.insert(key(i), i).grow_due) << i;
  }
  EXPECT_EQ(table.size(), 10'000u);
  EXPECT_EQ(table.rehashes(), 0u);
}

TEST(CasTableTest, EveryInsertPastTheThresholdReportsIt) {
  // 16 slots, threshold 10: the 11th insert reports the crossing and every
  // later one reports it again, and without a grow() the table keeps
  // filling past it.
  CasTable table;
  for (std::uint64_t i = 0; i < 14; ++i) {
    EXPECT_EQ(table.insert(key(i), i).grow_due, i >= 10) << i;
  }
  EXPECT_FALSE(table.insert(key(3), 3).grow_due);  // a duplicate counts nothing
  EXPECT_EQ(table.capacity(), 16u);
  table.grow();
  EXPECT_EQ(table.capacity(), 32u);
  for (std::uint64_t i = 0; i < 14; ++i) EXPECT_TRUE(table.contains(key(i))) << i;
}

TEST(CasTableTest, ReserveGrowsPastTheThresholdAndForTheHeadroom) {
  CasTable table;
  for (std::uint64_t i = 0; i < 14; ++i) table.insert(key(i), i);
  // Over its threshold: one growth puts 14 keys under 32 * 5/8 = 20, but
  // one caller's headroom is 2 * 16 unfolded inserts, more than 3/8 of 64
  // slots hold, so growths follow up to 128 slots.
  table.reserve(1, 0);
  EXPECT_EQ(table.capacity(), 128u);
  // Four callers adding 8 keys each past a report, on top of 2 * 16
  // unfolded each: 160 keys, more than 3/8 of 256 slots hold, less than of
  // 512.
  table.reserve(4, 8);
  EXPECT_EQ(table.capacity(), 512u);
  table.reserve(4, 8);  // already roomy: no growth
  EXPECT_EQ(table.capacity(), 512u);
  EXPECT_EQ(table.rehashes(), 5u);
  EXPECT_EQ(table.size(), 14u);
}

TEST(CasTableTest, EveryCallerLearnsOfAGrowthFromItsOwnFold) {
  // The caller whose fold crosses the threshold may never act on it (a
  // worker descheduled right after its insert). Every other caller still
  // learns of the growth from its own next fold, within 16 inserts of its
  // own, counting those it held unfolded when the threshold was crossed.
  // The callers take turns on one thread, so the order is exact.
  CasTable table(/*expected=*/2'000);  // 4,096 slots, threshold 2,560
  ASSERT_EQ(table.capacity(), 4096u);
  std::vector<CasTable::OpStats> callers(4);
  std::uint64_t next = 0;
  const auto insert = [&](int caller) {
    const std::uint64_t k = next++;
    return table.insert(key(k), k, 0, &callers[static_cast<std::size_t>(caller)]).grow_due;
  };
  // Callers 1-3 hold 3, 6 and 9 unfolded inserts.
  for (int c = 1; c <= 3; ++c) {
    for (int i = 0; i < 3 * c; ++i) ASSERT_FALSE(insert(c));
  }
  // Caller 0 folds 16 at a time: its fold at insert 2,576 crosses 2,560,
  // and then caller 0 stops.
  for (std::uint64_t i = 1; i <= 2'576; ++i) ASSERT_EQ(insert(0), i == 2'576) << i;
  for (int c = 1; c <= 3; ++c) {
    const std::uint64_t until_fold = 16 - 3 * static_cast<std::uint64_t>(c);
    for (std::uint64_t i = 1; i <= until_fold; ++i) {
      EXPECT_EQ(insert(c), i == until_fold) << "caller " << c << " insert " << i;
    }
  }
  // Each later fold reports it again until the table grows.
  for (std::uint64_t i = 1; i <= 16; ++i) EXPECT_EQ(insert(1), i == 16) << i;
  EXPECT_EQ(table.capacity(), 4096u);
  EXPECT_EQ(table.rehashes(), 0u);
  EXPECT_EQ(table.size(), next);
}

TEST(CasTableTest, AFullArrayIsAnAssertionNotASpin) {
  // A caller that never grows fills the array: the claim probe that finds
  // no EMPTY slot fails loudly instead of walking the array forever.
  CasTable table;
  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(table.insert(key(i), i).inserted);
  EXPECT_DEATH(table.insert(key(16), 16), "index full");
  // A duplicate still finds its key in the full array.
  EXPECT_FALSE(table.insert(key(5), 0).inserted);
}

TEST(CasTableTest, InsertWithMaterializesThePayloadExactlyOnce) {
  CasTable table;
  int calls = 0;
  const auto make = [&calls] {
    calls += 1;
    return std::uint64_t{42};
  };
  const CasTable::Found first = table.insert_with(key(5), 9, make);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.value, 42u);
  EXPECT_EQ(first.meta, 9u);
  EXPECT_EQ(calls, 1);
  // The duplicate path never materializes a payload, and reports the
  // resident meta rather than its own.
  const CasTable::Found dup = table.insert_with(key(5), 10, make);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(dup.meta, 9u);
  EXPECT_EQ(calls, 1);
}

TEST(CasTableTest, OpStatsAccumulateCallerSide) {
  CasTable table;
  CasTable::OpStats ops;
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    if (table.insert(key(i), i, 0, &ops).grow_due) table.grow();
  }
  EXPECT_EQ(ops.probe_ops, 2'000u);  // one probe per insert; growth probes none
  EXPECT_GE(ops.probe_total, ops.probe_ops);
  EXPECT_GE(ops.max_probe, 1u);
  EXPECT_EQ(ops.cas_retries, 0u);  // nobody raced this caller
}

TEST(CasTableTest, ConcurrentInsertersAgreeOnWinners) {
  // T threads race the same key range with thread-distinct payloads: exactly
  // one insert per key may win, and every loser must observe the winner's
  // payload — the published-slot acquire contract.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 10'000;
  CasTable table(kKeys);  // concurrent inserters never grow the table
  std::vector<std::uint64_t> wins(kThreads, 0);
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &wins, &ops] {
      const auto tag = static_cast<std::uint64_t>(t + 1) << 32;
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const CasTable::Found found =
            table.insert(key(i), tag | i, 0, &ops[static_cast<std::size_t>(t)]);
        if (found.inserted) {
          wins[static_cast<std::size_t>(t)] += 1;
        } else {
          // The resident value must be a complete (tag | i) write by SOME
          // thread for THIS key — a torn or missing payload fails here.
          ASSERT_EQ(found.value & 0xffff'ffffULL, i);
          ASSERT_NE(found.value >> 32, 0u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (CasTable::OpStats& stats : ops) table.fold(stats);

  std::uint64_t total_wins = 0;
  std::uint64_t total_probe_ops = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_wins += wins[static_cast<std::size_t>(t)];
    total_probe_ops += ops[static_cast<std::size_t>(t)].probe_ops;
  }
  EXPECT_EQ(total_wins, kKeys);
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_GE(total_probe_ops, kKeys * kThreads);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value & 0xffff'ffffULL, i);
  }
}

TEST(CasTableTest, RacingInsertersCountExactlyOnceTheyFold) {
  // Each thread counts its inserts in its own OpStats and folds them into
  // size() in batches of 16. Threads race overlapping key ranges into a
  // table whose threshold they cross; once they joined and folded their
  // remainders, size() is the number of distinct keys. Every fold that
  // ended past the threshold reported it: the folds are all 16 inserts and
  // the threshold is a multiple of 16, so that is one report per 16 keys
  // folded past it.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeysPerThread = 40'000;
  constexpr std::uint64_t kStride = kKeysPerThread / 2;  // half of each range is shared
  constexpr std::uint64_t kKeys = kStride * (kThreads + 1);
  CasTable table(kKeys / 2);  // 131,072 slots: threshold 81,920, never full
  ASSERT_EQ(table.capacity(), std::size_t{1} << 17);
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::uint64_t> wins(kThreads, 0);
  std::vector<int> crossings(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &ops, &wins, &crossings] {
      const auto slot = static_cast<std::size_t>(t);
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kStride;
      for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
        const CasTable::Found found = table.insert(key(base + i), base + i, 0, &ops[slot]);
        if (found.inserted) wins[slot] += 1;
        if (found.grow_due) crossings[slot] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t held = 0;
  std::uint64_t total_wins = 0;
  int total_crossings = 0;
  for (int t = 0; t < kThreads; ++t) {
    held += ops[static_cast<std::size_t>(t)].unfolded_inserts;
    total_wins += wins[static_cast<std::size_t>(t)];
    total_crossings += crossings[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(total_wins, kKeys);
  EXPECT_EQ(table.size() + held, kKeys);
  constexpr std::uint64_t kThreshold = 81'920;
  ASSERT_GT(table.size(), kThreshold);
  EXPECT_EQ(static_cast<std::uint64_t>(total_crossings), (table.size() - kThreshold) / 16);
  for (CasTable::OpStats& stats : ops) table.fold(stats);
  EXPECT_EQ(table.size(), kKeys);
  for (const CasTable::OpStats& stats : ops) EXPECT_EQ(stats.unfolded_inserts, 0u);
  EXPECT_EQ(table.rehashes(), 0u);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
  }
}

TEST(CasTableTest, ConcurrentInsertsReturnTheMetaWrittenWithTheKey) {
  // Threads race the same keys, each writing a thread-distinct (value, meta)
  // pair. Every Found — winner or loser — must carry the meta of the SAME
  // write as its value: the meta rides in the slot, written in the claimed
  // window.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 20'000;
  const auto meta_of = [](std::uint64_t value) {
    return static_cast<std::uint32_t>(util::mix64(value));
  };
  CasTable table(kKeys);  // concurrent inserters never grow the table
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &meta_of] {
      const auto writer = static_cast<std::uint64_t>(t + 1) << 32;
      CasTable::OpStats ops;
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        // Alternate the key order per thread so winners are mixed.
        const std::uint64_t k = t % 2 == 0 ? i : kKeys - 1 - i;
        const std::uint64_t value = writer | k;
        const CasTable::Found found = table.insert(key(k), value, meta_of(value), &ops);
        ASSERT_EQ(found.value & 0xffff'ffffULL, k);
        ASSERT_EQ(found.meta, meta_of(found.value)) << "key " << k;
        if (found.inserted) {
          ASSERT_EQ(found.value, value);
        }
      }
      table.fold(ops);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(k), found)) << k;
    ASSERT_EQ(found.meta, meta_of(found.value)) << k;
  }
  std::uint64_t published = 0;
  table.for_each_published([&](util::U128, std::uint64_t value, std::uint32_t meta) {
    published += 1;
    EXPECT_EQ(meta, meta_of(value));
  });
  EXPECT_EQ(published, kKeys);
}

TEST(CasTableTest, RoundsOfConcurrentInsertsWithGrowthBetweenJoinsKeepEveryKeyOnce) {
  // The worker loop's pattern: threads insert concurrently in rounds, and
  // the table grows only between rounds, once every thread joined, by
  // reserve() with room for a round. Each round a thread inserts new keys of
  // its own and re-inserts keys of earlier rounds, which must lose to their
  // originals. From a minimal table to 128 Ki slots, through mapped arrays
  // of up to 4 MiB that no one zero-filled, every key is found once, with
  // the value and meta written with it, and every insert that left size()
  // past a threshold reported it.
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  constexpr std::uint64_t kNewPerRound = 1'200;  // per thread
  const auto value_of = [](std::uint64_t k) { return k * 2 + 1; };
  const auto meta_of = [](std::uint64_t k) { return static_cast<std::uint32_t>(util::mix64(k)); };
  CasTable table;
  std::uint64_t keys = 0;  // keys 0 .. keys - 1 are in
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Room for every thread's new keys past a crossing.
    table.reserve(kThreads, kNewPerRound);
    const std::size_t capacity = table.capacity();
    const std::uint64_t before = table.size();
    std::vector<int> crossings(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::uint64_t base = keys + static_cast<std::uint64_t>(t) * kNewPerRound;
        for (std::uint64_t i = 0; i < kNewPerRound; ++i) {
          const std::uint64_t k = base + i;
          const CasTable::Found fresh = table.insert(key(k), value_of(k), meta_of(k));
          ASSERT_TRUE(fresh.inserted) << k;
          if (fresh.grow_due) crossings[static_cast<std::size_t>(t)] += 1;
          if (keys == 0) continue;
          const std::uint64_t old = util::mix64(k) % keys;
          const CasTable::Found dup = table.insert(key(old), 0, 0);
          ASSERT_FALSE(dup.inserted) << old;
          ASSERT_EQ(dup.value, value_of(old)) << old;
          ASSERT_EQ(dup.meta, meta_of(old)) << old;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    keys += kThreads * kNewPerRound;
    EXPECT_EQ(table.size(), keys);
    EXPECT_EQ(table.capacity(), capacity);
    // Without OpStats every insert folds, so each insert past the threshold
    // reports it.
    const std::uint64_t threshold = capacity / 8 * 5;
    std::uint64_t reported = 0;
    for (const int c : crossings) reported += static_cast<std::uint64_t>(c);
    EXPECT_EQ(reported, keys > threshold ? keys - std::max(before, threshold) : 0);
  }
  EXPECT_EQ(table.capacity(), std::size_t{1} << 17);
  EXPECT_EQ(table.rehashes(), 13u);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> seen;
  table.for_each_published([&](util::U128 k, std::uint64_t value, std::uint32_t meta) {
    EXPECT_TRUE(seen.emplace(std::make_pair(k.lo, k.hi), meta).second);
    EXPECT_EQ(meta, meta_of((value - 1) / 2));
  });
  ASSERT_EQ(seen.size(), keys);
  for (std::uint64_t k = 0; k < keys; ++k) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(k), found)) << k;
    ASSERT_EQ(found.value, value_of(k)) << k;
    ASSERT_EQ(found.meta, meta_of(k)) << k;
  }
}


TEST(CasTableTest, MappedArraysAreHugePageEligible) {
  const std::string mode = test::huge_page_mode();
  if (mode.empty() || mode == "never") {
    GTEST_SKIP() << "transparent huge pages are off or not reported";
  }
  const std::map<std::uint64_t, test::Mapping> before = test::read_mappings();
  ASSERT_FALSE(before.empty()) << "/proc/self/smaps is not readable";
  // 300,000 expected keys pre-size 2^19 slots: one 16 MiB mapped array.
  CasTable table(300'000);
  const std::uint64_t bytes = table.capacity() * 32;
  ASSERT_EQ(bytes, std::uint64_t{16} << 20);
  // The array is the mapping of its size that was not there before it.
  int found = 0;
  for (const auto& [begin, mapping] : test::read_mappings()) {
    if (mapping.bytes != bytes) continue;
    const auto old = before.find(begin);
    if (old != before.end() && old->second.bytes == bytes) continue;
    found += 1;
    EXPECT_TRUE(mapping.huge_page_eligible) << std::hex << begin;
  }
  EXPECT_EQ(found, 1);
}

}  // namespace
}  // namespace rcons::engine
