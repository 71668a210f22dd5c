#include <utility>
#include <vector>
namespace obs {
std::vector<std::pair<const char*, const char*>> metric_names() {
  return {
      {"engine.visited", "states inserted into the visited set"},
  };
}
std::vector<std::pair<const char*, const char*>> span_names() {
  return {
      {"probe", "reserved: a planned name, documented before any code emits it"},
  };
}
}  // namespace obs
