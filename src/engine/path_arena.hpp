// Append-only arena for PathLink backlink chains.
//
// The parallel explorer used to allocate one `shared_ptr<const PathLink>`
// control block per frontier push and pay an atomic refcount bump every time
// an item was moved — pure overhead, since every link of a run dies at the
// same moment (when exploration ends). Each worker now bump-allocates links
// out of its own chunked arena; links are immutable once written, may be
// referenced across workers (a stolen item's chain spans the victim's arena),
// and are freed wholesale when every worker has joined and the arenas go out
// of scope.
//
// Cross-arena safety: a link is fully written before the item carrying it is
// published through the frontier's deque mutex, and all arenas outlive all
// workers, so readers never see a torn or dangling link.
//
// The arenas of a run sit side by side in one array and each moves its bump
// pointer per new state, so every arena gets its own cache line.
#ifndef RCONS_ENGINE_PATH_ARENA_HPP
#define RCONS_ENGINE_PATH_ARENA_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/expand.hpp"

namespace rcons::engine {

class alignas(64) PathArena {
 public:
  PathArena() = default;
  PathArena(const PathArena&) = delete;
  PathArena& operator=(const PathArena&) = delete;

  // Makes room for one more link; amortizes to one heap allocation per
  // kChunkLinks links. After it, the next add() cannot fail.
  void reserve() {
    if (used_ == kChunkLinks) {
      chunks_.push_back(std::make_unique<PathLink[]>(kChunkLinks));
      used_ = 0;
    }
  }

  // One new immutable link.
  const PathLink* add(const Event& event, const PathLink* parent) {
    reserve();
    PathLink* link = &chunks_.back()[used_];
    used_ += 1;
    link->event = event;
    link->parent = parent;
    return link;
  }

 private:
  static constexpr std::size_t kChunkLinks = std::size_t{1} << 12;

  std::vector<std::unique_ptr<PathLink[]>> chunks_;
  std::size_t used_ = kChunkLinks;
};
static_assert(alignof(PathArena) >= 64, "per-worker arenas must not share a cache line");

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_PATH_ARENA_HPP
