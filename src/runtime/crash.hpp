// Crash injection for threaded executions of the universal construction
// (universal/) and its examples.
//
// A worker thread simulates the paper's crash/recovery failures by calling
// CrashInjector::point() between shared-memory accesses; with the configured
// probability the injector throws CrashException, unwinding the worker's
// stack — which is precisely the model's semantics: all local state (locals,
// program counter) is lost, shared NVRAM state survives. The worker's driver
// catches the exception and re-invokes the routine from the top (recovery).
#ifndef RCONS_RUNTIME_CRASH_HPP
#define RCONS_RUNTIME_CRASH_HPP

#include <cstdint>

#include "util/rng.hpp"

namespace rcons::runtime {

struct CrashException {};

class CrashInjector {
 public:
  // `per_mille`: probability (out of 1000) that a crash point fires.
  // `max_crashes`: total budget for this injector (keeps runs finite).
  CrashInjector(std::uint64_t seed, int per_mille, int max_crashes)
      : rng_(seed), per_mille_(per_mille), max_crashes_(max_crashes) {}

  // Never crashes.
  static CrashInjector none() { return CrashInjector(0, 0, 0); }

  // Crashes deterministically at the k-th crash point (1-based), once.
  static CrashInjector at(int k) {
    CrashInjector injector(0, 1000, 1);
    injector.skip_points_ = k - 1;
    return injector;
  }

  void point() {
    if (per_mille_ <= 0 || crashes_ >= max_crashes_) return;
    if (skip_points_ > 0) {
      skip_points_ -= 1;
      return;
    }
    if (rng_.chance(static_cast<std::uint64_t>(per_mille_), 1000)) {
      crashes_ += 1;
      throw CrashException{};
    }
  }

  int crashes() const { return crashes_; }

 private:
  util::Rng rng_;
  int per_mille_;
  int max_crashes_;
  int crashes_ = 0;
  int skip_points_ = 0;
};

}  // namespace rcons::runtime

#endif  // RCONS_RUNTIME_CRASH_HPP
