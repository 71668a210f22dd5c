#include "typesys/state_space.hpp"

#include <gtest/gtest.h>

#include "typesys/transition_cache.hpp"
#include "typesys/types/rmw.hpp"
#include "typesys/types/sn.hpp"

namespace rcons::typesys {
namespace {

TEST(StateSpaceTest, InternsDensely) {
  StateSpace space;
  EXPECT_EQ(space.intern({1, 2}), 0);
  EXPECT_EQ(space.intern({3}), 1);
  EXPECT_EQ(space.intern({1, 2}), 0);  // idempotent
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.repr(1), StateRepr{3});
}

TEST(StateSpaceTest, EmptyReprIsAValidState) {
  StateSpace space;
  const StateId empty = space.intern({});
  EXPECT_EQ(space.repr(empty), StateRepr{});
  EXPECT_EQ(space.intern({}), empty);
}

TEST(TransitionCacheTest, AppliesAndMemoizes) {
  TestAndSetType tas;
  TransitionCache cache(tas, 2);
  ASSERT_EQ(cache.num_ops(), 1);
  const StateId q0 = cache.initial_states().front();
  const auto step1 = cache.apply(q0, 0);
  const auto step2 = cache.apply(q0, 0);
  EXPECT_EQ(step1.next, step2.next);
  EXPECT_EQ(step1.response, step2.response);
  EXPECT_EQ(step1.response, 0);
  // The set state transitions to itself.
  const auto step3 = cache.apply(step1.next, 0);
  EXPECT_EQ(step3.next, step1.next);
  EXPECT_EQ(step3.response, 1);
}

TEST(TransitionCacheTest, InitialStatesPreInterned) {
  SnType sn(3);
  TransitionCache cache(sn, 3);
  EXPECT_EQ(cache.initial_states().size(), 6u);  // 2n candidate states
  // All candidate states distinct.
  for (std::size_t i = 0; i < cache.initial_states().size(); ++i) {
    for (std::size_t j = i + 1; j < cache.initial_states().size(); ++j) {
      EXPECT_NE(cache.initial_states()[i], cache.initial_states()[j]);
    }
  }
}

TEST(TransitionCacheTest, SnCandidateStatesAreClosedUnderOps) {
  // S_5's 2n candidate states are all it can reach: applying every operation
  // to every one of them discovers no further state.
  SnType sn(5);
  TransitionCache cache(sn, 5);
  ASSERT_EQ(cache.discovered_states(), 10u);
  for (const StateId q : cache.initial_states()) {
    for (OpId op = 0; op < cache.num_ops(); ++op) cache.apply(q, op);
  }
  EXPECT_EQ(cache.discovered_states(), 10u);
}

TEST(TransitionCacheTest, ResultsUseTheCallersStateIds) {
  // A state interned by the caller and the successor apply() returns share
  // one id space: CAS(⊥,1) from the interned ⊥ lands on the state {1}.
  CompareAndSwapType cas;
  TransitionCache cache(cas, 3);
  const StateId bottom = cache.intern({kBottom});
  const auto step = cache.apply(bottom, 0);
  EXPECT_EQ(step.response, kBottom);
  EXPECT_EQ(cache.repr(step.next), StateRepr{1});
  EXPECT_EQ(step.next, cache.intern({1}));
}

TEST(TransitionCacheTest, DiscoversOnlyReachableStates) {
  TestAndSetType tas;
  TransitionCache cache(tas, 2);
  const std::size_t before = cache.discovered_states();
  cache.apply(cache.initial_states().front(), 0);
  EXPECT_LE(cache.discovered_states(), before + 1);
}

}  // namespace
}  // namespace rcons::typesys
