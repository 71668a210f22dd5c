// Hashing helpers for interning tables and visited-state sets.
#ifndef RCONS_UTIL_HASH_HPP
#define RCONS_UTIL_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcons::util {

// 64-bit mix (Stafford variant 13); good avalanche for sequential combines.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

inline std::uint64_t hash_range(const std::int64_t* data, std::size_t size) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ size;
  for (std::size_t i = 0; i < size; ++i) {
    h = hash_combine(h, static_cast<std::uint64_t>(data[i]));
  }
  return h;
}

struct VecHash {
  std::size_t operator()(const std::vector<std::int64_t>& v) const {
    return static_cast<std::size_t>(hash_range(v.data(), v.size()));
  }
};

// 128-bit fingerprint used as a visited-state key. The two halves are
// produced by independent hash streams over the same canonical encoding, so a
// pruning collision requires a simultaneous 64+64-bit collision. Node
// fingerprints are avalanched (engine/expand.hpp), so a table takes a
// bucket from either half as it is (engine/cas_table.hpp).
struct U128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const U128&) const = default;
};

}  // namespace rcons::util

#endif  // RCONS_UTIL_HASH_HPP
