#include "engine/frontier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/path_arena.hpp"

namespace rcons::engine {
namespace {

// Items are tagged by the depth of their path chain so tests can observe
// ordering; links come from an arena exactly as in the explorer.
CompactWorkItem item_with_depth(PathArena& arena, std::size_t depth) {
  CompactWorkItem item;
  for (std::size_t i = 0; i < depth; ++i) {
    item.tail = arena.add(Event{Event::Kind::kStep, 0}, item.tail);
  }
  return item;
}

std::size_t depth_of(const CompactWorkItem& item) {
  return materialize_path(item.tail).size();
}

TEST(FrontierTest, LocalPopIsLifo) {
  PathArena arena;
  CompactFrontier frontier(2);
  frontier.push(0, item_with_depth(arena, 1));
  frontier.push(0, item_with_depth(arena, 2));
  frontier.push(0, item_with_depth(arena, 3));
  CompactWorkItem item;
  ASSERT_TRUE(frontier.pop(0, item));
  EXPECT_EQ(depth_of(item), 3u);
  ASSERT_TRUE(frontier.pop(0, item));
  EXPECT_EQ(depth_of(item), 2u);
  ASSERT_TRUE(frontier.pop(0, item));
  EXPECT_EQ(depth_of(item), 1u);
  EXPECT_FALSE(frontier.pop(0, item));
}

TEST(FrontierTest, PushBatchThenPopBatchDrainsNewestFirst) {
  PathArena arena;
  CompactFrontier frontier(1);
  std::vector<CompactWorkItem> batch;
  for (std::size_t depth = 1; depth <= 6; ++depth) {
    batch.push_back(item_with_depth(arena, depth));
  }
  frontier.push_batch(0, batch);

  // pop_batch takes the newest items; consuming `out` back-to-front yields
  // the LIFO order 6, 5, 4.
  std::vector<CompactWorkItem> out;
  ASSERT_EQ(frontier.pop_batch(0, out, 3), 3u);
  EXPECT_EQ(depth_of(out[0]), 4u);
  EXPECT_EQ(depth_of(out[1]), 5u);
  EXPECT_EQ(depth_of(out[2]), 6u);

  out.clear();
  ASSERT_EQ(frontier.pop_batch(0, out, 10), 3u);  // the remaining 1, 2, 3
  EXPECT_EQ(depth_of(out.back()), 3u);
  out.clear();
  EXPECT_EQ(frontier.pop_batch(0, out, 10), 0u);
}

TEST(FrontierTest, StealTakesOldestItemsInBatchDirectlyIntoOutput) {
  PathArena arena;
  CompactFrontier frontier(2);
  std::vector<CompactWorkItem> batch;
  for (std::size_t depth = 1; depth <= 8; ++depth) {
    batch.push_back(item_with_depth(arena, depth));
  }
  frontier.push_batch(0, batch);

  // Worker 1 is empty: its pop_batch steals half of worker 0's deque from
  // the front (depths 1..4), delivered straight into `out` — worker 1's own
  // deque never participates. Back-to-front consumption serves the most
  // recent of the stolen batch (depth 4) first.
  std::vector<CompactWorkItem> out;
  ASSERT_EQ(frontier.pop_batch(1, out, 32), 4u);
  EXPECT_EQ(depth_of(out.front()), 1u);
  EXPECT_EQ(depth_of(out.back()), 4u);
  EXPECT_EQ(frontier.stats().steals, 1u);
  EXPECT_EQ(frontier.stats().stolen_items, 4u);

  // Worker 0 still owns the newest items.
  CompactWorkItem item;
  ASSERT_TRUE(frontier.pop(0, item));
  EXPECT_EQ(depth_of(item), 8u);
}

TEST(FrontierTest, StealRespectsCallerCapacity) {
  PathArena arena;
  CompactFrontier frontier(2);
  std::vector<CompactWorkItem> batch;
  for (std::size_t depth = 1; depth <= 8; ++depth) {
    batch.push_back(item_with_depth(arena, depth));
  }
  frontier.push_batch(0, batch);

  // A single-item pop steals exactly one item (the victim's oldest); nothing
  // is dropped on the floor.
  CompactWorkItem item;
  ASSERT_TRUE(frontier.pop(1, item));
  EXPECT_EQ(depth_of(item), 1u);
  EXPECT_EQ(frontier.stats().stolen_items, 1u);

  std::size_t remaining = 0;
  while (frontier.pop(0, item)) remaining += 1;
  EXPECT_EQ(remaining, 7u);
}

TEST(FrontierTest, SingleWorkerNeverSteals) {
  PathArena arena;
  CompactFrontier frontier(1);
  frontier.push(0, item_with_depth(arena, 1));
  CompactWorkItem item;
  EXPECT_TRUE(frontier.pop(0, item));
  EXPECT_FALSE(frontier.pop(0, item));
  EXPECT_EQ(frontier.stats().steals, 0u);
}

TEST(FrontierTest, ConcurrentBatchPushPopLosesNothing) {
  constexpr int kWorkers = 4;
  constexpr int kBatchesPerWorker = 500;
  constexpr std::size_t kBatchSize = 10;
  CompactFrontier frontier(kWorkers);
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([w, &frontier, &popped] {
      std::vector<CompactWorkItem> batch;
      std::vector<CompactWorkItem> out;
      for (int i = 0; i < kBatchesPerWorker; ++i) {
        batch.assign(kBatchSize, CompactWorkItem{});
        frontier.push_batch(w, batch);
      }
      // Drain greedily; stealing redistributes whatever is left elsewhere.
      for (;;) {
        out.clear();
        const std::size_t got = frontier.pop_batch(w, out, 7);
        if (got == 0) break;
        popped.fetch_add(static_cast<int>(got), std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // A worker can observe momentary emptiness while another still holds
  // items, so drain the remainder single-threaded before counting.
  std::vector<CompactWorkItem> out;
  for (int w = 0; w < kWorkers; ++w) {
    for (;;) {
      out.clear();
      const std::size_t got = frontier.pop_batch(w, out, 64);
      if (got == 0) break;
      popped.fetch_add(static_cast<int>(got), std::memory_order_relaxed);
    }
  }
  // Relaxed is enough: workers joined above, so all fetch_adds happened-before.
  EXPECT_EQ(popped.load(std::memory_order_relaxed),
            kWorkers * kBatchesPerWorker * static_cast<int>(kBatchSize));
}

}  // namespace
}  // namespace rcons::engine
