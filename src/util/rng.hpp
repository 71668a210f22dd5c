// Deterministic pseudo-random number generation.
//
// The random runner (sim/random_runner) draws its schedules, crashes
// included, from an explicitly seeded Rng, so that any failing execution can
// be replayed exactly.
#ifndef RCONS_UTIL_RNG_HPP
#define RCONS_UTIL_RNG_HPP

#include <cstdint>

#include "util/assert.hpp"

namespace rcons::util {

// SplitMix64: used to expand a user seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256**: fast, high-quality, and trivially copyable (so simulator
// snapshots of randomized components remain value-semantic).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). Uses rejection sampling to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) {
    RCONS_ASSERT(bound > 0);
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  // Bernoulli trial with probability numer/denom.
  bool chance(std::uint64_t numer, std::uint64_t denom) {
    RCONS_ASSERT(denom > 0);
    return below(denom) < numer;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace rcons::util

#endif  // RCONS_UTIL_RNG_HPP
