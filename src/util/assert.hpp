// Internal invariant checking — the repo's contract layer.
//
// Three tiers, in decreasing cost tolerance:
//
//   RCONS_ASSERT / RCONS_ASSERT_MSG   active in ALL build types. The
//       properties this library verifies (agreement, validity,
//       linearizability) are the deliverable, so silently skipping these in
//       release builds would defeat the point. Reserve them for cheap checks
//       on cold paths (constructor validation, file parsing, API misuse).
//
//   RCONS_DCHECK / RCONS_DCHECK_MSG   compiled out in Release (NDEBUG)
//       unless RCONS_FORCE_DCHECK is defined (cmake -DRCONS_FORCE_DCHECK=ON).
//       These guard hot-path protocol invariants — slot-tag transition
//       legality, the transitions identity at flush points, the quiescence
//       of a checkpoint's cut, codec fingerprint agreement —
//       that are too expensive or too frequent to verify on every Release
//       operation. The static-analysis CI job runs the full ctest suite in
//       a Debug+RCONS_FORCE_DCHECK build so every contract executes.
//
//   RCONS_UNREACHABLE(msg)            always-on, [[noreturn]]. Marks code
//       paths the surrounding logic has proven dead (e.g. a switch over an
//       enum whose every member returns). Preferred over a bare
//       std::abort(): it reports file/line and is recognized by the
//       assert-discipline lint rule (tools/analyze/lint.py).
//
// Bare assert( and std::abort( outside this header are lint errors
// (assert-discipline); route everything through these macros.
#ifndef RCONS_UTIL_ASSERT_HPP
#define RCONS_UTIL_ASSERT_HPP

#include <cstdio>
#include <cstdlib>

namespace rcons::util {

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "rcons assertion failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg != nullptr ? msg : "");
  std::abort();  // rcons-lint: allow(assert-discipline) the one sanctioned abort site
}

}  // namespace rcons::util

#define RCONS_ASSERT(expr)                                                \
  do {                                                                    \
    if (!(expr)) ::rcons::util::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
  } while (false)

#define RCONS_ASSERT_MSG(expr, msg)                                       \
  do {                                                                    \
    if (!(expr)) ::rcons::util::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

// Debug contracts: on when NDEBUG is absent (Debug / default developer
// builds of CMAKE_BUILD_TYPE=Debug) or when forced via RCONS_FORCE_DCHECK.
// RelWithDebInfo and Release define NDEBUG, so DCHECKs compile to nothing
// there — the Release bench rows stay contract-free.
#if !defined(NDEBUG) || defined(RCONS_FORCE_DCHECK)
#define RCONS_DCHECK_ENABLED 1
#else
#define RCONS_DCHECK_ENABLED 0
#endif

#if RCONS_DCHECK_ENABLED
#define RCONS_DCHECK(expr) RCONS_ASSERT(expr)
#define RCONS_DCHECK_MSG(expr, msg) RCONS_ASSERT_MSG(expr, (msg))
#else
// Compiled out: the expression is not evaluated (it may be O(record) work),
// but sizeof keeps it syntactically checked so disabled contracts cannot rot.
#define RCONS_DCHECK(expr) \
  do {                     \
    (void)sizeof((expr));  \
  } while (false)
#define RCONS_DCHECK_MSG(expr, msg) \
  do {                              \
    (void)sizeof((expr));           \
    (void)sizeof(msg);              \
  } while (false)
#endif

#define RCONS_UNREACHABLE(msg) \
  ::rcons::util::assert_fail("unreachable", __FILE__, __LINE__, (msg))

#endif  // RCONS_UTIL_ASSERT_HPP
