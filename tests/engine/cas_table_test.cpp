#include "engine/cas_table.hpp"

#include <gtest/gtest.h>

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

// Test-only access to CasTable's growth internals (CasTable names it a
// friend).
struct CasTableTestSeam {
  struct Held {
    CasTable::Array* array = nullptr;
    std::size_t stripe = 0;
  };

  // Claims the next stripe of the oldest pending sweep and does not migrate
  // it, as a migrator descheduled right after its claim.
  static Held hold_stripe(CasTable& table) {
    CasTable::Array* successor = nullptr;
    CasTable::Array* oldest = table.oldest_pending(successor);
    if (oldest == nullptr) return Held{};
    return Held{oldest, oldest->stripe_cursor.fetch_add(1, std::memory_order_relaxed)};
  }

  // Migrates the held stripe, as the migrator does once it runs again.
  static void release_stripe(CasTable& table, const Held& held) {
    CasTable::Array* successor = nullptr;
    CasTable::Array* oldest = table.oldest_pending(successor);
    ASSERT_EQ(oldest, held.array) << "a sweep with a held stripe cannot complete";
    table.migrate_stripe(*oldest, *successor, held.stripe, nullptr);
  }
};

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
  CasTable table;  // minimal capacity: forces several growth epochs
  constexpr std::uint64_t kKeys = 20'000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(table.insert(key(i), i, static_cast<std::uint32_t>(i * 3)).inserted) << i;
  }
  EXPECT_GT(table.rehashes(), 0u);
  EXPECT_EQ(table.size(), kKeys);
  // Every key survived every migration with its original payload.
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
    ASSERT_EQ(found.meta, i * 3) << i;
  }
  // And duplicates still lose against the migrated originals.
  for (std::uint64_t i = 0; i < kKeys; i += 97) {
    const CasTable::Found dup = table.insert(key(i), ~i, 7);
    EXPECT_FALSE(dup.inserted);
    EXPECT_EQ(dup.value, i);
    EXPECT_EQ(dup.meta, i * 3);
  }
}

TEST(CasTableTest, PresizedTableNeverGrows) {
  CasTable table(/*expected=*/10'000);
  for (std::uint64_t i = 0; i < 10'000; ++i) table.insert(key(i), i);
  EXPECT_EQ(table.size(), 10'000u);
  EXPECT_EQ(table.rehashes(), 0u);
  EXPECT_FALSE(table.migrating());
}

TEST(CasTableTest, CooperativeSweepFinishesUnderDuplicateTraffic) {
  // Helping is driven by the insert path itself — even duplicate inserts
  // migrate a stripe while a sweep is pending, so bounded traffic after a
  // growth must finish the sweep without any dedicated migrator thread.
  CasTable table;
  std::uint64_t i = 0;
  while (table.rehashes() == 0) {
    table.insert(key(i), i);
    i += 1;
  }
  for (std::size_t spins = 0; table.migrating() && spins < table.capacity();
       ++spins) {
    table.insert(key(0), 0);  // duplicate: no size change, still helps
  }
  EXPECT_FALSE(table.migrating());
  EXPECT_EQ(table.size(), i);
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
  for (std::uint64_t i = 0; i < 2'000; ++i) table.insert(key(i), i, 0, &ops);
  EXPECT_GE(ops.probe_ops, 2'000u);  // growth helpers probe too
  EXPECT_GE(ops.probe_total, ops.probe_ops);
  EXPECT_GE(ops.max_probe, 1u);
  // A minimal table growing to 2000 keys swept stripes via this caller.
  EXPECT_GT(ops.migration_stripes, 0u);
}

TEST(CasTableTest, ConcurrentInsertersAgreeOnWinners) {
  // T threads race the same key range with thread-distinct payloads: exactly
  // one insert per key may win, and every loser must observe the winner's
  // payload — the published-slot acquire contract.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 10'000;
  CasTable table;
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
  // size() in batches. Threads race overlapping key ranges through many
  // growth epochs; once they joined and folded their remainders, size() is
  // the number of distinct keys, and the batched count still drove growth.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeysPerThread = 30'000;
  constexpr std::uint64_t kStride = kKeysPerThread / 2;  // half of each range is shared
  constexpr std::uint64_t kKeys = kStride * (kThreads + 1);
  CasTable table;
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::uint64_t> wins(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &ops, &wins] {
      const auto slot = static_cast<std::size_t>(t);
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kStride;
      for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
        if (table.insert(key(base + i), base + i, 0, &ops[slot]).inserted) wins[slot] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t held = 0;
  std::uint64_t total_wins = 0;
  for (int t = 0; t < kThreads; ++t) {
    held += ops[static_cast<std::size_t>(t)].unfolded_inserts;
    total_wins += wins[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(total_wins, kKeys);
  EXPECT_EQ(table.size() + held, kKeys);
  for (CasTable::OpStats& stats : ops) table.fold(stats);
  EXPECT_EQ(table.size(), kKeys);
  for (const CasTable::OpStats& stats : ops) EXPECT_EQ(stats.unfolded_inserts, 0u);
  // Growth kept the load at most 5/8, give or take the batches in flight.
  EXPECT_GE(table.capacity() / 8 * 5 + kThreads * 16, kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
  }
}

TEST(CasTableTest, ConcurrentGrowthMigrationStress) {
  // Start minimal so the table must grow many times while all threads are
  // mid-insert: every epoch's seal/tombstone/retry handshake and the shared
  // stripe sweep run under real contention. Disjoint per-thread key ranges
  // make the final size exact.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeysPerThread = 8'000;
  CasTable table;
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &ops] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kKeysPerThread;
      for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
        ASSERT_TRUE(
            table.insert(key(base + i), base + i, 0, &ops[static_cast<std::size_t>(t)])
                .inserted);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (CasTable::OpStats& stats : ops) table.fold(stats);

  EXPECT_EQ(table.size(), kThreads * kKeysPerThread);
  EXPECT_GT(table.rehashes(), 0u);
  std::uint64_t total_stripes = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_stripes += ops[static_cast<std::size_t>(t)].migration_stripes;
  }
  EXPECT_GT(total_stripes, 0u);
  for (std::uint64_t i = 0; i < kThreads * kKeysPerThread; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
  }
}

TEST(CasTableTest, ConcurrentGrowthThroughUnwrittenMappedArraysKeepsEveryKey) {
  // A mapped array is never written before use: its zero pages are its
  // EMPTY slots. Four threads grow a minimal table through several mapped
  // arrays (the last 16 MiB) with disjoint keys; each key must come back
  // with the value and meta written with it, and size() must be exact once
  // every thread folded.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeysPerThread = 80'000;
  CasTable table;
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &ops] {
      CasTable::OpStats& stats = ops[static_cast<std::size_t>(t)];
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kKeysPerThread;
      for (std::uint64_t i = base; i < base + kKeysPerThread; ++i) {
        ASSERT_TRUE(
            table.insert(key(i), i * 3, static_cast<std::uint32_t>(i ^ 0x5a5a), &stats)
                .inserted);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (CasTable::OpStats& stats : ops) table.fold(stats);

  EXPECT_EQ(table.size(), kThreads * kKeysPerThread);
  EXPECT_GE(table.capacity() * 32, std::size_t{16} << 20);
  for (std::uint64_t i = 0; i < kThreads * kKeysPerThread; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i * 3) << i;
    ASSERT_EQ(found.meta, static_cast<std::uint32_t>(i ^ 0x5a5a)) << i;
  }
  std::uint64_t published = 0;
  table.for_each_published([&](util::U128, std::uint64_t, std::uint32_t) { published += 1; });
  EXPECT_GE(published, kThreads * kKeysPerThread);
}

TEST(CasTableTest, ConcurrentInsertsUnderGrowthReturnTheMetaWrittenWithTheKey) {
  // Threads race the same keys through many growth epochs from a minimal
  // table, each writing a thread-distinct (value, meta) pair. Every Found —
  // winner or loser, answered from the live array, a sealed one or a
  // migrated copy — must carry the meta of the SAME write as its value: the
  // meta rides in the slot, written in the claimed window and carried by the
  // migration sweep.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 20'000;
  const auto meta_of = [](std::uint64_t value) {
    return static_cast<std::uint32_t>(util::mix64(value));
  };
  CasTable table;
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
  EXPECT_GT(table.rehashes(), 0u);
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
  EXPECT_GE(published, kKeys);
}


// Bytes the slot arrays of a table grown from the minimal capacity keep once
// no sweep is pending: every heap array (under CasTable::kMapBytes) plus the
// live one. Detached mapped arrays have been released.
std::uint64_t expected_retained(const CasTable& table) {
  constexpr std::uint64_t kSlotBytes = 32;
  std::uint64_t bytes = table.capacity() * kSlotBytes;
  for (std::uint64_t capacity = 16;
       capacity < table.capacity() && capacity * kSlotBytes < CasTable::kMapBytes;
       capacity <<= 1) {
    bytes += capacity * kSlotBytes;
  }
  return bytes;
}

void finish_sweeps(CasTable& table, util::U128 resident) {
  // Duplicate inserts help the pending sweeps along without adding keys.
  while (table.migrating()) table.insert(resident, 0);
}

TEST(CasTableTest, DetachedMappedArraysAreReleasedAndSmallOnesKept) {
  CasTable table;
  std::uint64_t inserted = 0;
  // Grow until two arrays of at least 1 MiB (32 Ki and 64 Ki slots) have been
  // sealed, swept and detached.
  while (table.capacity() < (std::size_t{1} << 17)) {
    table.insert(key(inserted), inserted);
    inserted += 1;
  }
  finish_sweeps(table, key(0));
  EXPECT_EQ(table.capacity(), std::size_t{1} << 17);
  // Heap arrays: 16 .. 16 Ki slots, just under 1 MiB together; live: 4 MiB.
  EXPECT_EQ(table.retained_bytes(), expected_retained(table));
  EXPECT_EQ(table.retained_bytes(), (std::uint64_t{32'768} - 16) * 32 + (1u << 22));

  // The released arrays are gone from lookups only in their memory: every
  // key is still found, with its value, in the live array.
  for (std::uint64_t i = 0; i < inserted; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
  }
  std::uint64_t published = 0;
  table.for_each_published([&](util::U128, std::uint64_t, std::uint32_t) { published += 1; });
  EXPECT_EQ(published, inserted);
}

TEST(CasTableTest, GrowthStacksAnEpochPastAStalledSweep) {
  // A migrator descheduled on a claimed stripe keeps its sweep pending, so
  // the growth at 5/8 of the live array defers. Inserts must not fill the
  // live array meanwhile: past 7/8 of it the table grows anyway, stacking an
  // epoch on the pending sweep, and no probe walks a full array.
  CasTable table;
  std::uint64_t inserted = 0;
  while (table.capacity() < 1024) {
    table.insert(key(inserted), inserted);
    inserted += 1;
  }
  ASSERT_TRUE(table.migrating());
  const CasTableTestSeam::Held held = CasTableTestSeam::hold_stripe(table);
  ASSERT_NE(held.array, nullptr);

  const std::size_t capacity = table.capacity();
  const std::uint64_t rehashes = table.rehashes();
  CasTable::OpStats ops;
  while (table.rehashes() == rehashes) {
    ASSERT_LT(inserted, capacity) << "the live array filled before it grew";
    ASSERT_TRUE(table.insert(key(inserted), inserted, 0, &ops).inserted) << inserted;
    inserted += 1;
  }
  // Arrays under 4 Ki slots fold every insert, so the growth came with the
  // first insert past 7/8 of the live array, with the sweep still pending.
  EXPECT_EQ(table.size(), capacity / 8 * 7 + 1);
  EXPECT_EQ(table.capacity(), 2 * capacity);
  EXPECT_TRUE(table.migrating());
  EXPECT_LT(ops.max_probe, capacity / 8);

  // Once the stripe is migrated every sweep can finish, and no key is lost.
  CasTableTestSeam::release_stripe(table, held);
  finish_sweeps(table, key(0));
  EXPECT_EQ(table.size(), inserted);
  for (std::uint64_t i = 0; i < inserted; ++i) {
    CasTable::Found found;
    ASSERT_TRUE(table.find(key(i), found)) << i;
    ASSERT_EQ(found.value, i) << i;
  }
}

TEST(CasTableTest, ReadersRaceReleasedArraysWithoutLosingKeys) {
  // Inserters grow a minimal table past two mapped arrays while readers look
  // up keys already inserted, the all-zero key most often. A reader may be
  // inside a slot of an array whose pages are being released: it must still
  // find every key with its own value and meta, never a zeroed payload. Each
  // release is one short window, so the race runs on several fresh tables.
  // Two gates make the readers' lookups independent of scheduling: a start
  // gate holds the inserters after their first key until every reader has
  // found the all-zero key, and an end gate holds them before their last key
  // until every reader has done a lookup in its loop. `lookups` counts only
  // the loop's lookups, so each reader looks up while the table still grows.
  constexpr int kRounds = 6;
  constexpr int kInserters = 2;
  constexpr int kReaders = 2;
  // 50,000 keys: the table grows to 128 Ki slots, releasing its 32 Ki- and
  // 64 Ki-slot arrays (1 and 2 MiB) on the way.
  constexpr std::uint64_t kKeysPerInserter = 25'000;
  constexpr std::uint64_t kKeys = kInserters * kKeysPerInserter;
  const auto value_of = [](std::uint64_t i) { return i * 2 + 1; };  // never 0
  const auto meta_of = [](std::uint64_t i) {
    return static_cast<std::uint32_t>(util::mix64(i)) | 1u;  // never 0
  };
  // Inserter 0's first key is the all-zero key.
  const auto key_of = [](std::uint64_t i) { return i == 0 ? util::U128{0, 0} : key(i); };

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    CasTable table;
    std::vector<std::atomic<std::uint64_t>> progress(kInserters);
    for (auto& p : progress) p.store(0, std::memory_order_relaxed);
    std::atomic<int> inserters_left{kInserters};
    std::atomic<int> readers_in{0};
    std::atomic<int> readers_looped{0};
    std::atomic<std::uint64_t> lookups{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kInserters; ++t) {
      threads.emplace_back([&, t] {
        const std::uint64_t base = static_cast<std::uint64_t>(t) * kKeysPerInserter;
        CasTable::OpStats ops;
        for (std::uint64_t i = 0; i < kKeysPerInserter; ++i) {
          const std::uint64_t k = base + i;
          if (i + 1 == kKeysPerInserter) {
            while (readers_looped.load(std::memory_order_acquire) != kReaders) {
              std::this_thread::yield();
            }
          }
          ASSERT_TRUE(table.insert(key_of(k), value_of(k), meta_of(k), &ops).inserted) << k;
          progress[static_cast<std::size_t>(t)].store(i + 1, std::memory_order_release);
          if (i == 0) {
            while (readers_in.load(std::memory_order_acquire) != kReaders) {
              std::this_thread::yield();
            }
          }
        }
        table.fold(ops);
        inserters_left.fetch_sub(1, std::memory_order_release);
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        std::uint64_t rng = util::mix64(static_cast<std::uint64_t>(r + round * kReaders) + 1);
        std::uint64_t done = 0;
        // The start gate: find the all-zero key, then let the inserters go
        // on. It is not counted in `done`. Each gate opens before the checks
        // of its lookup, and the start gate's checks do not return, so a
        // failed check cannot leave the inserters waiting.
        while (progress[0].load(std::memory_order_acquire) == 0) std::this_thread::yield();
        {
          CasTable::Found found;
          const bool first = table.find(key_of(0), found);
          readers_in.fetch_add(1, std::memory_order_release);
          EXPECT_TRUE(first);
          EXPECT_EQ(found.value, value_of(0));
          EXPECT_EQ(found.meta, meta_of(0));
        }
        while (inserters_left.load(std::memory_order_acquire) != 0) {
          rng = util::mix64(rng);
          const auto t = static_cast<std::size_t>(rng % kInserters);
          const std::uint64_t ready = progress[t].load(std::memory_order_acquire);
          if (ready == 0) continue;
          // Three lookups in four ask for the all-zero key once it is in.
          const std::uint64_t k =
              (rng >> 8) % 4 != 0 && progress[0].load(std::memory_order_acquire) != 0
                  ? 0
                  : t * kKeysPerInserter + (rng >> 17) % ready;
          CasTable::Found found;
          const bool hit = table.find(key_of(k), found);
          // The end gate: this reader's first lookup while the table grew.
          if (++done == 1) readers_looped.fetch_add(1, std::memory_order_release);
          ASSERT_TRUE(hit) << k;
          ASSERT_EQ(found.value, value_of(k)) << k;
          ASSERT_EQ(found.meta, meta_of(k)) << k;
        }
        lookups.fetch_add(done, std::memory_order_relaxed);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_GT(lookups.load(std::memory_order_relaxed), 0u);

    finish_sweeps(table, util::U128{0, 0});
    EXPECT_EQ(table.size(), kKeys);
    EXPECT_EQ(table.capacity(), std::size_t{1} << 17);
    EXPECT_EQ(table.retained_bytes(), expected_retained(table));
    // No key lost or duplicated: each key is published once, with its
    // payload.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> seen;
    table.for_each_published([&](util::U128 k, std::uint64_t value, std::uint32_t meta) {
      EXPECT_TRUE(seen.emplace(std::make_pair(k.lo, k.hi), value).second);
      EXPECT_EQ(meta, meta_of((value - 1) / 2));
    });
    ASSERT_EQ(seen.size(), kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const util::U128 kk = key_of(k);
      ASSERT_EQ(seen[std::make_pair(kk.lo, kk.hi)], value_of(k)) << k;
    }
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
  const std::uint64_t bytes = table.retained_bytes();
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
