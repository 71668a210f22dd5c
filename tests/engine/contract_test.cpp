// Verifies the util/assert.hpp contract layer actually executes: a
// deliberately corrupted per-worker tally must trip the transitions-identity
// DCHECK and abort. In builds where DCHECKs compile out (NDEBUG without
// RCONS_FORCE_DCHECK — RelWithDebInfo, the TSan/ASan jobs) the death test is
// skipped; the static-analysis CI job builds Debug with
// -DRCONS_FORCE_DCHECK=ON so the abort is observed there.
#include "engine/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace rcons::engine {
namespace {

Tally consistent_stats() {
  Tally stats;
  stats.transitions = 10;
  stats.visited = 4;
  stats.duplicates = 3;
  stats.violation_edges = 2;
  stats.orbit_skipped = 1;
  return stats;
}

TEST(ContractTest, TransitionsIdentityHoldsOnConsistentStats) {
  // Must return without aborting in every build type.
  ParallelExplorer::dcheck_transitions_identity(consistent_stats());
}

TEST(ContractTest, TransitionsIdentityViolationAborts) {
#if RCONS_DCHECK_ENABLED
  Tally bad = consistent_stats();
  bad.duplicates += 1;  // one duplicate tallied without its transition
  EXPECT_DEATH(ParallelExplorer::dcheck_transitions_identity(bad),
               "transitions identity violated");
#else
  GTEST_SKIP() << "RCONS_DCHECK compiled out (NDEBUG build without "
                  "RCONS_FORCE_DCHECK); the static-analysis CI job runs this";
#endif
}

TEST(ContractTest, DcheckCompiledOutMatchesBuildType) {
  // RCONS_DCHECK must be free in NDEBUG builds unless explicitly forced —
  // the Release bench rows depend on it. This pins the enablement logic.
#if defined(NDEBUG) && !defined(RCONS_FORCE_DCHECK)
  EXPECT_EQ(RCONS_DCHECK_ENABLED, 0);
  bool evaluated = false;
  RCONS_DCHECK([&] {
    evaluated = true;
    return true;
  }());
  EXPECT_FALSE(evaluated) << "disabled RCONS_DCHECK must not evaluate its argument";
#else
  EXPECT_EQ(RCONS_DCHECK_ENABLED, 1);
#endif
}

TEST(ContractTest, UnreachableAbortsInAllBuildTypes) {
  EXPECT_DEATH(RCONS_UNREACHABLE("contract test"), "unreachable");
}

}  // namespace
}  // namespace rcons::engine
