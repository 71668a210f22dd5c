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
      {"probe", "pre-sizing probe run"},
      {"minimize", "schedule minimization, emitted by an example program"},
  };
}
}  // namespace obs
