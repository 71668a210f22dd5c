// check_cli: run a scenario spec file through the check:: facade with any
// strategy — the command-line face of check(CheckRequest).
//
//   $ check_cli scenarios.spec                    # Strategy::kAuto
//   $ check_cli scenarios.spec --strategy=dfs     # force sequential DFS
//   $ check_cli scenarios.spec --strategy=bfs --threads=8
//   $ check_cli scenarios.spec --strategy=random --runs=500 --seed=7
//   $ check_cli scenarios.spec --minimize --save-viol=corpus/
//   $ check_cli scenarios.spec --progress         # live stderr heartbeat
//   $ check_cli scenarios.spec --trace-out=trace.json --metrics-out=m.jsonl
//   $ check_cli corpus/register_race.viol         # replay a violation file
//   $ check_cli --list                            # grammar + obs vocabulary
//   $ check_cli one.spec --checkpoint-out=run.ckpt --checkpoint-every=10000
//   $ check_cli one.spec --resume=run.ckpt --checkpoint-out=run.ckpt
//   $ check_cli one.spec --fault-inject=die@batch=50   # deterministic faults
//
// Each line of the spec file describes one scenario (see
// examples/scenarios/default.spec for the grammar; algo= selects the
// construction, properties=/k= the typed property set, time_limit=/mem_limit=
// the resource-sentinel budgets). `--list` prints the vocabulary spec authors
// need: every zoo type name, the algo= values, the property names, the budget
// keys, and the strategies. A `.viol` argument instead replays one persisted
// violation (check/violation_io.hpp) and verifies it still reproduces the
// recorded typed property. On violations, --minimize greedily shrinks the
// schedule (check/minimize.hpp) before printing/saving, and --save-viol=DIR
// persists each violation as DIR/<scenario>.viol.
//
// A spec file runs through check::run_specs (check/spec_runner.hpp), which
// owns the scenario loop, the verdict column and the exit code; this file
// parses arguments, replays .viol files and handles each violation.
//
// Exit-code contract (pinned by tests/cli/exit_code_test.cpp):
//   0 = every scenario clean (or, for a .viol input, the violation reproduced)
//   1 = a property violation was found (or a .viol failed to reproduce);
//       takes precedence over truncation
//   2 = bad usage or invalid input (unparsable spec, unknown flag, a numeric
//       flag that is not a plain decimal in range, corrupt or mismatched
//       checkpoint without --resume-or-fresh, bad fault plan, a .viol
//       schedule with an event its scenario does not allow), or a
//       --checkpoint-out run whose final checkpoint could not be written
//       (the write error is printed on stderr)
//   3 = no violation, but at least one scenario was truncated (visited cap,
//       time/memory sentinel, watchdog, or forced stop — the verdict names
//       the reason); the verdict is incomplete, not a proof
//
// Crash-recoverable checking: --checkpoint-out=F writes a durable checkpoint
// (temp file + rename, CRC-framed) at exit and — with --checkpoint-every=N —
// every N further visited states; --resume=F seeds the run from F (the
// scenario line and config hash must match, else exit 2), while
// --resume-or-fresh=F falls back to a fresh run when F is missing or corrupt.
// Checkpointing needs a single-scenario spec file and an exhaustive parallel
// strategy (auto/bfs). --fault-inject=PLAN arms the deterministic fault
// harness (engine/fault_inject.hpp: alloc|stall|stop|die|trunc at
// batch|intern|ckpt-write).
//
// Observability (obs/session.hpp): --progress prints a rate-limited stderr
// heartbeat (states/s, frontier size, dedup rate, ETA vs budget),
// --trace-out=F exports phase + worker spans as Chrome trace-event JSON
// (load F in https://ui.perfetto.dev), --metrics-out=F streams periodic
// JSONL registry snapshots, --obs-interval-ms=N tunes the sampler period.
// The written trace is self-validated (obs::validate_chrome_trace); an
// invalid or unwritable trace exits 2. `--list` also prints every documented
// metric and span name.
#include <cctype>
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_runner.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "engine/checkpoint.hpp"
#include "engine/fault_inject.hpp"
#include "obs/session.hpp"
#include "sim/replay.hpp"
#include "typesys/zoo.hpp"

namespace {

using namespace rcons;

struct CliOptions {
  std::string input_file;
  check::Strategy strategy = check::Strategy::kAuto;
  int num_threads = 0;
  int runs = 200;
  std::uint64_t seed = 1;
  bool show_trace = false;
  bool minimize = false;
  bool list = false;
  std::string save_viol_dir;
  bool progress = false;
  std::string trace_out;
  std::string metrics_out;
  int obs_interval_ms = 500;
  std::string checkpoint_out;
  std::uint64_t checkpoint_every = 0;
  std::string resume_path;
  bool resume_or_fresh = false;
  std::string fault_plan_text;
  int sentinel_interval_ms = 50;
  int watchdog_stall_intervals = 0;
};

// Reads the value of `arg` ("--flag=value"): decimal digits only, no sign or
// trailing text, in range and at least `min`.
template <typename T>
bool parse_number(const std::string& arg, T min, T& out) {
  const std::size_t eq = arg.find('=');
  const char* const begin = arg.data() + eq + 1;
  const char* const end = arg.data() + arg.size();
  T value{};
  const auto [stop, error] = std::from_chars(begin, end, value);
  if (error != std::errc{} || stop != end || *begin == '-' || value < min) {
    std::cerr << arg.substr(0, eq) << " needs an integer >= " << min << ", got '"
              << arg.substr(eq + 1) << "'\n";
    return false;
  }
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--strategy=", 0) == 0) {
      const std::string name = arg.substr(11);
      if (name == "auto") {
        options.strategy = check::Strategy::kAuto;
      } else if (name == "dfs") {
        options.strategy = check::Strategy::kSequentialDFS;
      } else if (name == "bfs") {
        options.strategy = check::Strategy::kParallelBFS;
      } else if (name == "random") {
        options.strategy = check::Strategy::kRandomized;
      } else {
        std::cerr << "unknown strategy '" << name << "' (auto|dfs|bfs|random)\n";
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_number(arg, 0, options.num_threads)) return false;
    } else if (arg.rfind("--runs=", 0) == 0) {
      if (!parse_number(arg, 1, options.runs)) return false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_number(arg, std::uint64_t{0}, options.seed)) return false;
    } else if (arg == "--trace") {
      options.show_trace = true;
    } else if (arg == "--minimize") {
      options.minimize = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg.rfind("--save-viol=", 0) == 0) {
      options.save_viol_dir = arg.substr(12);
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (arg.rfind("--obs-interval-ms=", 0) == 0) {
      if (!parse_number(arg, 1, options.obs_interval_ms)) return false;
    } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
      options.checkpoint_out = arg.substr(17);
      if (options.checkpoint_out.empty()) {
        std::cerr << "--checkpoint-out needs a file path\n";
        return false;
      }
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!parse_number(arg, std::uint64_t{1}, options.checkpoint_every)) return false;
    } else if (arg.rfind("--resume=", 0) == 0) {
      options.resume_path = arg.substr(9);
      options.resume_or_fresh = false;
      if (options.resume_path.empty()) {
        std::cerr << "--resume needs a checkpoint path\n";
        return false;
      }
    } else if (arg.rfind("--resume-or-fresh=", 0) == 0) {
      options.resume_path = arg.substr(18);
      options.resume_or_fresh = true;
      if (options.resume_path.empty()) {
        std::cerr << "--resume-or-fresh needs a checkpoint path\n";
        return false;
      }
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      if (!parse_number(arg, 1, options.watchdog_stall_intervals)) return false;
    } else if (arg.rfind("--sentinel-interval-ms=", 0) == 0) {
      if (!parse_number(arg, 1, options.sentinel_interval_ms)) return false;
    } else if (arg.rfind("--fault-inject=", 0) == 0) {
      options.fault_plan_text = arg.substr(15);
      if (options.fault_plan_text.empty()) {
        std::cerr << "--fault-inject needs a plan (e.g. die@batch=50)\n";
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    } else if (options.input_file.empty()) {
      options.input_file = arg;
    } else {
      std::cerr << "unexpected argument " << arg << "\n";
      return false;
    }
  }
  if (options.input_file.empty() && !options.list) {
    std::cerr << "usage: check_cli <scenario-file|violation.viol>\n"
                 "                 [--strategy=auto|dfs|bfs|random] [--threads=N]\n"
                 "                 [--runs=R] [--seed=S] [--trace] [--minimize]\n"
                 "                 [--save-viol=DIR]\n"
                 "                 [--progress] [--trace-out=FILE.json]\n"
                 "                 [--metrics-out=FILE.jsonl] [--obs-interval-ms=N]\n"
                 "                 [--checkpoint-out=FILE.ckpt] [--checkpoint-every=N]\n"
                 "                 [--resume=FILE.ckpt | --resume-or-fresh=FILE.ckpt]\n"
                 "                 [--fault-inject=action@site=N]\n"
                 "                 [--sentinel-interval-ms=N] [--watchdog=INTERVALS]\n"
                 "       check_cli --list   # spec grammar + observability vocabulary\n";
    return false;
  }
  if (options.checkpoint_every != 0 && options.checkpoint_out.empty()) {
    std::cerr << "--checkpoint-every needs --checkpoint-out=FILE\n";
    return false;
  }
  return true;
}

// The spec-grammar vocabulary: everything a `.spec` author can write without
// reading source code.
int print_list() {
  std::cout << "zoo types (type=...):\n";
  for (const typesys::ZooEntry& entry : typesys::make_zoo(5)) {
    std::cout << "  " << entry.type->name() << "\n";
  }
  std::cout << "  (Tn(k) / Sn(k) take any family size k >= 2)\n";

  std::cout << "\nalgorithms (algo=...):\n"
            << "  team            Figure 2 recoverable team consensus (default;\n"
            << "                  needs an n-recording type)\n"
            << "  halting         Ruppert halting-model tournament (crash-unsafe)\n"
            << "  naive-register  write-then-read register race (race-unsafe)\n"
            << "  k-set           k-group split consensus; needs k=<int>, 2 <= k <= n\n";

  std::cout << "\nproperties (properties=comma,separated,list; default "
            << sim::PropertySet().label() << "):\n";
  for (const sim::PropertyKind kind :
       {sim::PropertyKind::kAgreement, sim::PropertyKind::kKSetAgreement,
        sim::PropertyKind::kValidity, sim::PropertyKind::kWaitFreedom,
        sim::PropertyKind::kAtMostOnceDecide}) {
    std::cout << "  " << sim::property_name(kind);
    if (kind == sim::PropertyKind::kKSetAgreement) std::cout << " (needs k=<int>)";
    std::cout << "\n";
  }

  std::cout << "\nbudget keys (per scenario line; -1/absent = inherit):\n"
            << "  max_steps=N    per-run wait-freedom bound\n"
            << "  max_visited=N  visited-state cap (typed TRUNCATED verdict)\n"
            << "  time_limit=N   wall-clock budget in ms (resource sentinel;\n"
            << "                 typed TRUNCATED(deadline) verdict, exit 3)\n"
            << "  mem_limit=N    resident-set budget in MiB (TRUNCATED(memory))\n";

  std::cout << "\nstrategies (--strategy=...):\n"
            << "  auto | dfs | bfs | random (plus .viol replay via a file argument)\n";

  std::cout << "\nexit codes:\n"
            << "  0 clean   1 violation   2 invalid input   3 truncated\n";

  std::cout << "\nmetrics (--metrics-out / --progress / CheckReport.metrics):\n";
  for (const obs::NameDoc& doc : obs::metric_names()) {
    std::cout << "  " << doc.name << "  " << doc.doc << "\n";
  }
  std::cout << "\nspans (--trace-out):\n";
  for (const obs::NameDoc& doc : obs::span_names()) {
    std::cout << "  " << doc.name << "  " << doc.doc << "\n";
  }
  return 0;
}

std::string sanitize_filename(std::string name) {
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-' && ch != '.') {
      ch = '_';
    }
  }
  return name;
}

// Prints a scenario's violation (or a truncation's note) to stderr, after
// --minimize, with --trace's schedule, and saved under --save-viol.
void report_violation(const CliOptions& options, obs::Hooks hooks,
                      const check::ScenarioResult& result,
                      const check::ScenarioSystem& pristine) {
  const std::string& name = result.name;
  if (!result.violating()) {
    if (result.truncated() && result.report.violation.has_value()) {
      std::cerr << name << ": " << result.report.violation->description << "\n";
    }
    return;
  }
  const check::Budget budget = result.spec.budget();
  sim::Violation violation = *result.report.violation;
  if (options.minimize) {
    obs::Span span(hooks.tracer, 0, "minimize");
    const check::MinimizeResult minimized = check::minimize(pristine, budget, violation);
    std::cerr << name << ": minimized " << minimized.original_events << " -> "
              << minimized.violation.schedule.size() << " events ("
              << minimized.replays << " replays)\n";
    violation = minimized.violation;
  }
  std::cerr << name << ": " << violation.description << "\n";
  if (options.show_trace) {
    std::cerr << "  schedule: " << violation.trace() << "\n";
  }
  if (options.save_viol_dir.empty()) return;
  // A corpus file must honour the replay contract; schedules found under
  // symmetry reduction are only valid up to a class permutation and may not
  // reproduce — verify before persisting.
  const sim::ReplayReport replayed = sim::replay(
      pristine.memory, pristine.processes, violation.schedule, pristine.properties, budget);
  if (!replayed.violation.has_value() ||
      replayed.violation->property != violation.property) {
    std::cerr << name << ": schedule does not replay (symmetry-reduced "
                         "counterexample?) — not saved\n";
    return;
  }
  check::ViolationFile file;
  file.scenario = result.spec;
  file.property = violation.property;
  file.property_param = violation.property_param;
  file.description = violation.description;
  file.schedule = violation.schedule;
  const std::string path = options.save_viol_dir + "/" + sanitize_filename(name) + ".viol";
  if (check::save_violation_file(path, file)) {
    std::cerr << name << ": saved " << path << "\n";
  } else {
    std::cerr << name << ": could not write " << path << "\n";
  }
}

// Replays one persisted violation file and reports whether it reproduces.
int replay_violation_file(const CliOptions& options, obs::Hooks hooks) {
  const check::ViolationParse parse = check::load_violation_file(options.input_file);
  if (!parse.ok()) {
    for (const std::string& error : parse.errors) std::cerr << error << "\n";
    return 2;
  }
  const check::ViolationFile& file = *parse.file;

  check::CheckRequest request;
  request.system = check::build_spec_system(file.scenario);
  request.budget = file.scenario.budget();
  request.strategy = check::Strategy::kReplay;
  request.schedule = file.schedule;
  request.obs = hooks;
  const check::CheckReport report = check::check(std::move(request));

  if (report.rejected.has_value()) {
    std::cerr << options.input_file << ": event " << *report.rejected + 1 << ": "
              << sim::format_schedule({file.schedule[*report.rejected]})
              << "is not one the scenario allows at that point\n";
    return 2;
  }
  std::cout << check::spec_display_name(file.scenario) << ": ";
  if (report.violation.has_value() && report.violation->property == file.property) {
    std::cout << "violation reproduced (" << report.violation->description << ")\n";
    return 0;
  }
  std::cout << "violation did NOT reproduce (expected "
            << sim::property_name(file.property) << ")\n";
  return 1;
}

// Runs every scenario of a spec file; returns the process exit code.
int run_spec_file(const CliOptions& options, obs::Hooks hooks) {
  check::ScenarioParse parse;
  {
    obs::Span span(hooks.tracer, 0, "spec_parse");
    parse = check::load_scenario_file(options.input_file);
  }
  if (!parse.ok()) {
    for (const std::string& error : parse.errors) std::cerr << error << "\n";
    return 2;
  }

  if (!options.checkpoint_out.empty() || !options.resume_path.empty()) {
    if (parse.specs.size() != 1) {
      std::cerr << "checkpoint/resume needs a spec file with exactly one "
                   "scenario, got "
                << parse.specs.size() << "\n";
      return 2;
    }
    if (options.strategy != check::Strategy::kAuto &&
        options.strategy != check::Strategy::kParallelBFS) {
      std::cerr << "checkpoint/resume needs --strategy=auto or bfs (the "
                   "parallel engine owns the checkpoint format)\n";
      return 2;
    }
  }

  check::CheckRequest request;
  request.strategy = options.strategy;
  request.num_threads = options.num_threads;
  request.runs = options.runs;
  request.seed = options.seed;
  request.obs = hooks;
  request.sentinel_interval_ms = options.sentinel_interval_ms;
  request.watchdog_stall_intervals = options.watchdog_stall_intervals;
  request.checkpoint_path = options.checkpoint_out;
  request.checkpoint_every = options.checkpoint_every;

  engine::FaultPlan fault_plan;
  if (!options.fault_plan_text.empty()) {
    std::string error;
    if (!engine::parse_fault_plan(options.fault_plan_text, fault_plan, error)) {
      std::cerr << error << "\n";
      return 2;
    }
    request.fault = &fault_plan;
  }

  engine::CheckpointData resume_data;
  if (!options.resume_path.empty()) {
    std::string error;
    const engine::CheckpointLoad load =
        engine::load_checkpoint(options.resume_path, resume_data, error);
    if (load == engine::CheckpointLoad::kOk) {
      request.resume = &resume_data;
    } else if (options.resume_or_fresh) {
      std::cerr << "resume: " << error << " — starting fresh\n";
    } else {
      std::cerr << "resume: " << error << "\n";
      return 2;
    }
  }

  const check::SpecRun run = check::run_specs(
      parse.specs, request,
      [&](const check::ScenarioResult& result, const check::ScenarioSystem& pristine) {
        report_violation(options, hooks, result, pristine);
      });
  if (!run.error.empty()) {
    std::cerr << run.error << "\n";
    return 2;
  }
  run.print(std::cout);
  for (const check::ScenarioResult& result : run.results) {
    if (!result.report.stats.checkpoint_error.empty()) {
      std::cerr << result.name << ": " << result.report.stats.checkpoint_error << "\n";
    }
  }
  return run.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return 2;
  if (options.list) return print_list();

  obs::SessionOptions session_options;
  session_options.progress = options.progress;
  session_options.trace_out = options.trace_out;
  session_options.metrics_out = options.metrics_out;
  session_options.interval_ms = options.obs_interval_ms;
  std::optional<obs::Session> session;
  if (session_options.any_enabled()) session.emplace(std::move(session_options));
  const obs::Hooks hooks = session.has_value() ? session->hooks() : obs::Hooks{};

  int exit_code;
  if (options.input_file.size() > 5 &&
      options.input_file.rfind(".viol") == options.input_file.size() - 5) {
    exit_code = replay_violation_file(options, hooks);
  } else {
    exit_code = run_spec_file(options, hooks);
  }

  if (session.has_value()) {
    std::string error;
    if (!session->finish(&error)) {
      std::cerr << "obs: " << error << "\n";
      return 2;
    }
    if (!options.trace_out.empty()) {
      // Self-check the exported trace so a broken trace fails loudly here
      // rather than silently in a viewer (CI relies on this exit code).
      std::ifstream in(options.trace_out);
      if (!in.is_open()) {
        std::cerr << "obs: cannot reopen trace file " << options.trace_out << "\n";
        return 2;
      }
      if (!obs::validate_chrome_trace(in, &error)) {
        std::cerr << "obs: invalid trace " << options.trace_out << ": " << error
                  << "\n";
        return 2;
      }
    }
  }
  return exit_code;
}
