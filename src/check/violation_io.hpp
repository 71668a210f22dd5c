// Violation files (`.viol`): spec-like persistence of a violating schedule,
// the scenario it was found on, and the property it broke — the regression
// corpus format under tests/corpus/.
//
// Format (line-oriented, `#` comments and blank lines ignored):
//
//   # halting-model tournament over test-and-set, one crash
//   scenario type=test-and-set n=2 budget=1 algo=halting
//   property agreement
//   description agreement violated: process 1 decided 2 but an earlier ...
//   step 0
//   step 1
//   crash 0
//   crash-all
//
// `scenario` reuses the scenario-spec grammar (check/scenario_spec.hpp), so
// a violation file is self-contained: build_spec_system materializes the
// system, Strategy::kReplay re-executes the schedule, and the violation must
// reproduce with the same typed property. The parser checks syntax only;
// whether each event is one the scenario's model allows where it occurs
// (process range, crash budget, crash model) is decided by replay
// (sim/replay.hpp), which reports the first event it rejects.
//
// `property` carries the sim::PropertyKind name (plus its parameter when
// non-zero, e.g. `property k-set-agreement 2`); a file without it is a parse
// error ("missing property line"). check_cli writes these with --save-viol;
// tests/check/corpus_test.cpp replays every checked-in corpus file.
#ifndef RCONS_CHECK_VIOLATION_IO_HPP
#define RCONS_CHECK_VIOLATION_IO_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario_spec.hpp"
#include "sim/explorer_config.hpp"
#include "sim/schedule.hpp"

namespace rcons::check {

struct ViolationFile {
  ScenarioSpec scenario;
  sim::PropertyKind property = sim::PropertyKind::kNone;
  std::int64_t property_param = 0;
  std::string description;
  std::vector<sim::ScheduleEvent> schedule;
};

struct ViolationParse {
  std::optional<ViolationFile> file;  // set iff errors is empty
  std::vector<std::string> errors;    // "line N: message"

  bool ok() const { return errors.empty(); }
};

// Renders `file` in the format above (with a generated header comment).
std::string format_violation_file(const ViolationFile& file);

ViolationParse parse_violation_file(std::istream& in);
ViolationParse parse_violation_file(const std::string& text);

// Reads and parses `path`; an unopenable file is reported as a parse error.
ViolationParse load_violation_file(const std::string& path);

// Writes format_violation_file(file) to `path`; false on I/O failure.
bool save_violation_file(const std::string& path, const ViolationFile& file);

}  // namespace rcons::check

#endif  // RCONS_CHECK_VIOLATION_IO_HPP
