// Reads this process's memory mappings from /proc/self/smaps, for tests of
// the transparent-huge-page advice on the store's mapped memory.
#ifndef RCONS_TESTS_SUPPORT_SMAPS_HPP
#define RCONS_TESTS_SUPPORT_SMAPS_HPP

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace rcons::test {

// The selected mode of transparent huge pages ("always", "madvise" or
// "never"); empty where the kernel does not say.
inline std::string huge_page_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']');
  if (open == std::string::npos || close == std::string::npos || close < open) return "";
  return line.substr(open + 1, close - open - 1);
}

// One mapping: its size and its THPeligible flag.
struct Mapping {
  std::uint64_t bytes = 0;
  bool huge_page_eligible = false;
};

// The mappings of this process, by start address.
inline std::map<std::uint64_t, Mapping> read_mappings() {
  std::map<std::uint64_t, Mapping> mappings;
  std::ifstream in("/proc/self/smaps");
  Mapping* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    const std::size_t dash = first.find('-');
    if (dash != std::string::npos && first.back() != ':') {
      const std::uint64_t begin = std::stoull(first.substr(0, dash), nullptr, 16);
      const std::uint64_t end = std::stoull(first.substr(dash + 1), nullptr, 16);
      current = &mappings[begin];
      current->bytes = end - begin;
    } else if (first == "THPeligible:" && current != nullptr) {
      int flag = 0;
      fields >> flag;
      current->huge_page_eligible = flag == 1;
    }
  }
  return mappings;
}

// The mapping that holds `address`: its start and entry, or {0, {}} when
// none does.
inline std::pair<std::uint64_t, Mapping> mapping_of(const void* address) {
  const auto at = reinterpret_cast<std::uintptr_t>(address);
  for (const auto& [begin, mapping] : read_mappings()) {
    if (begin <= at && at - begin < mapping.bytes) return {begin, mapping};
  }
  return {0, Mapping{}};
}

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_SMAPS_HPP
