// Resource-sentinel primitives: a monotonic millisecond clock and the
// process resident-set size. Both traversals of the engine sample these
// inline (ParallelExplorer::Limits); keeping the raw plumbing here keeps
// /proc parsing out of the explorer.
#ifndef RCONS_ENGINE_SENTINEL_HPP
#define RCONS_ENGINE_SENTINEL_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>

namespace rcons::engine {

// Milliseconds since an arbitrary (steady) epoch — the sentinels only ever
// compare differences against Budget::time_limit_ms.
inline std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Current resident-set size in bytes, or 0 when unavailable (non-Linux, or
// /proc unreadable) — a 0 reading disables the memory sentinel rather than
// tripping it. Reads /proc/self/statm, whose second field is resident pages;
// cheap enough (~1µs) to sample every 1024 transitions.
inline std::uint64_t current_rss_bytes() {
#ifdef __linux__
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  // Page size is 4 KiB on every platform this project targets; avoiding
  // sysconf keeps the header free of <unistd.h>.
  return static_cast<std::uint64_t>(resident_pages) * 4096ULL;
#else
  return 0;
#endif
}

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_SENTINEL_HPP
