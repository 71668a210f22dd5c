// rcons_bench: the measuring half of the rcons benchmark; perfbench/run.py
// builds it, runs it, and turns its samples into the benchmark's metrics.
//
//   rcons_bench --workload exhaustive-auto2|symmetric-dfs|spec-sweep
//               --seed N --seconds S --trace 0|1 --root DIR [--trace-out FILE]
//
// A run is a closed loop from one process: one check() at a time, the next
// starting when the previous verdict returns. It goes through the calls
// check_cli makes — parse_scenario_specs, parse_violation_file,
// build_spec_system, check (kAuto, kSequentialDFS, kReplay) and minimize —
// and checks every verdict and visited count against the pinned values
// below. `--root` is the source tree holding examples/scenarios/ and
// tests/corpus/.
//
// Untraced (--trace 0): set-up passes, then measured passes with no obs
// hooks installed. Traced (--trace 1): set-up passes with the benchmark's
// own spans, then untraced and traced passes alternating (the traced ones
// install an obs::MetricsRegistry and an obs::Tracer through
// CheckRequest.obs), then the stage-isolation pass (stages.hpp) and a
// single-thread reference run of the same instance. The Chrome trace goes to
// --trace-out.
//
// Output: one JSON document of raw samples on stdout. The process exits 0
// when the run finished, whether or not a check failed (the samples report
// failures); 2 on bad usage or unreadable inputs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stages.hpp"
#include "util/json.hpp"

namespace {

using namespace rcons;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// --- pinned results ---------------------------------------------------------

struct Expect {
  bool clean = true;
  sim::PropertyKind property = sim::PropertyKind::kNone;
  std::uint64_t visited = 0;
};

std::string pin_key(const check::ScenarioSpec& spec) {
  return check::spec_display_name(spec) + (spec.symmetry ? " symmetry=on" : "");
}

// Verdict and visited count of every scenario the workloads check, under
// Strategy::kAuto (the large instances under their workload's strategy).
const std::map<std::string, Expect>& pins() {
  constexpr sim::PropertyKind kAgreement = sim::PropertyKind::kAgreement;
  static const std::map<std::string, Expect> kPins = {
      // exhaustive-auto2 and symmetric-dfs
      {"team/Sn(5)/n=5/independent/c=1", {true, {}, 528'349}},
      {"team/Sn(5)/n=5/independent/c=2 symmetry=on", {true, {}, 78'906}},
      // examples/scenarios/default.spec
      {"team/Sn(2)/n=2/independent/c=3", {true, {}, 792}},
      {"team/Sn(2)/n=2/simultaneous/c=3", {true, {}, 556}},
      {"team/Sn(3)/n=3/independent/c=2", {true, {}, 6'081}},
      {"team/Sn(3)/n=3/simultaneous/c=2", {true, {}, 3'383}},
      {"team/Tn(4)/n=2/independent/c=3", {true, {}, 744}},
      {"team/Tn(4)/n=2/simultaneous/c=3", {true, {}, 619}},
      {"team/compare-and-swap/n=2/independent/c=3", {true, {}, 496}},
      {"team/compare-and-swap/n=2/simultaneous/c=3", {true, {}, 421}},
      {"team/compare-and-swap/n=3/independent/c=2", {true, {}, 2'243}},
      {"team/compare-and-swap/n=3/simultaneous/c=2", {true, {}, 1'586}},
      {"team/sticky-bit/n=3/independent/c=2", {true, {}, 1'681}},
      {"team/sticky-bit/n=3/simultaneous/c=2", {true, {}, 1'214}},
      {"team/consensus-object/n=2/independent/c=3", {true, {}, 496}},
      {"team/consensus-object/n=2/simultaneous/c=3", {true, {}, 421}},
      {"team/readable-stack/n=3/independent/c=2", {true, {}, 8'836}},
      {"team/readable-stack/n=3/simultaneous/c=2", {true, {}, 5'681}},
      // examples/scenarios/k_set.spec (the second is also a corpus file)
      {"kset-clean", {true, {}, 657}},
      {"kset-consensus-violates", {false, kAgreement, 6}},
      // tests/corpus/*.viol, found again from their scenario line
      {"halting-tas", {false, kAgreement, 12}},
      {"register-race", {false, kAgreement, 3}},
  };
  return kPins;
}

// --- workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string trace_out;
};

// The text inputs of a workload, read once: set-up passes parse from memory.
struct Inputs {
  std::vector<std::string> spec_texts;
  std::vector<std::string> viol_texts;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::ostringstream text;
  text << in.rdbuf();
  out = text.str();
  return true;
}

// What one set-up pass produces: every system the workload checks.
struct Setup {
  std::vector<check::ScenarioSpec> specs;  // one per system
  std::vector<check::ScenarioSystem> systems;
  std::vector<check::Budget> budgets;
  std::vector<check::ViolationFile> viols;  // viols[i] is system specs.size()-viols.size()+i
  std::vector<std::string> errors;
};

struct SetupTiming {
  double parse_s = 0.0;
  double build_s = 0.0;
  std::size_t parsed = 0;  // scenario lines plus .viol files
  std::size_t built = 0;
};

// The budget check_cli derives from a spec line.
check::Budget spec_budget(const check::ScenarioSpec& spec) {
  check::Budget budget;
  budget.crash_model = spec.crash_model;
  budget.crash_budget = spec.crash_budget;
  if (spec.max_steps_per_run >= 0) budget.max_steps_per_run = spec.max_steps_per_run;
  if (spec.max_visited >= 0) budget.max_visited = spec.max_visited;
  if (spec.time_limit_ms >= 0) budget.time_limit_ms = spec.time_limit_ms;
  if (spec.mem_limit_mb >= 0) budget.mem_limit_mb = spec.mem_limit_mb;
  return budget;
}

Setup run_setup(const Inputs& inputs, obs::Tracer* tracer, SetupTiming& timing) {
  obs::Span pass_span(tracer, 0, "bench.setup");
  Setup setup;
  const Clock::time_point parse_begin = Clock::now();
  for (const std::string& text : inputs.spec_texts) {
    obs::Span span(tracer, 0, "bench.parse");
    check::ScenarioParse parse = check::parse_scenario_specs(text);
    setup.errors.insert(setup.errors.end(), parse.errors.begin(), parse.errors.end());
    setup.specs.insert(setup.specs.end(), parse.specs.begin(), parse.specs.end());
  }
  for (const std::string& text : inputs.viol_texts) {
    obs::Span span(tracer, 0, "bench.load_viol");
    check::ViolationParse parse = check::parse_violation_file(text);
    setup.errors.insert(setup.errors.end(), parse.errors.begin(), parse.errors.end());
    if (parse.file.has_value()) {
      setup.specs.push_back(parse.file->scenario);
      setup.viols.push_back(std::move(*parse.file));
    }
  }
  timing.parse_s += seconds_since(parse_begin);
  timing.parsed += setup.specs.size();

  const Clock::time_point build_begin = Clock::now();
  for (const check::ScenarioSpec& spec : setup.specs) {
    obs::Span span(tracer, 0, "bench.build");
    setup.systems.push_back(check::build_spec_system(spec));
    setup.budgets.push_back(spec_budget(spec));
  }
  timing.build_s += seconds_since(build_begin);
  timing.built += setup.specs.size();
  return setup;
}

// One check() of a pass, with the results it must reproduce.
struct Item {
  std::string label;
  std::size_t system = 0;
  check::Strategy strategy = check::Strategy::kAuto;
  int num_threads = 0;
  std::optional<std::size_t> replay_of;  // viol index: replay its schedule
  bool minimize = false;
  Expect expect;
};

struct Workload {
  Inputs inputs;
  check::Strategy strategy = check::Strategy::kAuto;  // for every non-replay item
  int num_threads = 0;
  std::vector<Item> items;
  std::string stage_label;       // the instance the stage pass walks (empty: the first)
  std::size_t stage_system = 0;
  perfbench::Driver stage_driver = perfbench::Driver::kSequentialDfs;
  check::Strategy reference_strategy = check::Strategy::kSequentialDFS;
  bool shuffle = false;  // permute the item order per pass by the seed
};

bool load_inputs(const Options& options, Workload& workload, std::string& error) {
  if (options.workload == "exhaustive-auto2") {
    workload.inputs.spec_texts = {"type=Sn(5) n=5 budget=1\n"};
    workload.num_threads = 2;
    workload.stage_driver = perfbench::Driver::kParallelEngine;
    workload.reference_strategy = check::Strategy::kParallelBFS;
    return true;
  }
  if (options.workload == "symmetric-dfs") {
    workload.inputs.spec_texts = {"type=Sn(5) n=5 budget=2 symmetry=on\n"};
    workload.strategy = check::Strategy::kSequentialDFS;
    return true;
  }
  if (options.workload != "spec-sweep") {
    error = "unknown workload '" + options.workload +
            "' (exhaustive-auto2 | symmetric-dfs | spec-sweep)";
    return false;
  }
  workload.shuffle = true;
  workload.stage_label = "team/readable-stack/n=3/independent/c=2";
  for (const char* path : {"examples/scenarios/default.spec", "examples/scenarios/k_set.spec"}) {
    std::string text;
    if (!read_file(options.root + "/" + path, text)) {
      error = std::string("cannot read ") + path;
      return false;
    }
    workload.inputs.spec_texts.push_back(std::move(text));
  }
  for (const char* name : {"halting-tas", "kset-consensus-violates", "register-race"}) {
    std::string text;
    const std::string path = std::string("tests/corpus/") + name + ".viol";
    if (!read_file(options.root + "/" + path, text)) {
      error = "cannot read " + path;
      return false;
    }
    workload.inputs.viol_texts.push_back(std::move(text));
  }
  return true;
}

// Derives the per-pass items from one set-up result.
bool make_items(const Setup& setup, Workload& workload, std::string& error) {
  const std::size_t first_viol = setup.specs.size() - setup.viols.size();
  for (std::size_t i = 0; i < setup.specs.size(); ++i) {
    const check::ScenarioSpec& spec = setup.specs[i];
    const auto pin = pins().find(pin_key(spec));
    if (pin == pins().end()) {
      error = "no pinned result for " + pin_key(spec);
      return false;
    }
    Item item;
    item.label = check::spec_display_name(spec);
    item.system = i;
    item.expect = pin->second;
    item.strategy = workload.strategy;
    item.num_threads = workload.num_threads;
    item.minimize = !item.expect.clean;
    if (i >= first_viol) {
      const check::ViolationFile& viol = setup.viols[i - first_viol];
      if (viol.property != item.expect.property) {
        error = item.label + ": corpus file property differs from the pinned one";
        return false;
      }
      Item replay;
      replay.label = "replay:" + item.label;
      replay.system = i;
      replay.strategy = check::Strategy::kReplay;
      replay.replay_of = i - first_viol;
      replay.expect = Expect{false, viol.property, 0};
      workload.items.push_back(replay);
      item.label = "find:" + item.label;
    }
    if (item.label == workload.stage_label) workload.stage_system = i;
    workload.items.push_back(item);
  }
  return true;
}

// --- passes -----------------------------------------------------------------

struct CheckRecord {
  std::size_t item = 0;
  double seconds = 0.0;
  std::uint64_t visited = 0;
  check::Strategy used = check::Strategy::kAuto;
};

struct MinimizeRecord {
  std::size_t item = 0;
  double seconds = 0.0;
  int replays = 0;
};

struct PassRecord {
  bool traced = false;
  double seconds = 0.0;  // first check() call to last verdict (or minimize)
  std::vector<CheckRecord> checks;
  std::vector<MinimizeRecord> minimizes;
  obs::MetricsSnapshot registry;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& message) {
    failed += 1;
    if (failures.size() < 20) failures.push_back(message);
  }
};

std::string describe(const check::CheckReport& report) {
  std::ostringstream out;
  if (report.violation.has_value()) {
    out << "violation(" << sim::property_name(report.violation->property) << ")";
  } else {
    out << (report.complete ? "clean" : "incomplete");
  }
  out << " visited=" << report.stats.visited;
  return out.str();
}

PassRecord run_pass(const Workload& workload, const Setup& setup,
                    const std::vector<std::size_t>& order, obs::Hooks hooks, Tally& tally) {
  // Copy every system before the clock starts: check() consumes its request.
  std::vector<check::CheckRequest> requests(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Item& item = workload.items[order[k]];
    check::CheckRequest& request = requests[k];
    request.system = setup.systems[item.system];
    request.budget = setup.budgets[item.system];
    request.strategy = item.strategy;
    request.num_threads = item.num_threads;
    if (item.replay_of.has_value()) request.schedule = setup.viols[*item.replay_of].schedule;
    request.obs = hooks;
  }

  PassRecord pass;
  pass.traced = hooks.enabled();
  if (hooks.metrics != nullptr) hooks.metrics->reset();
  const Clock::time_point pass_begin = Clock::now();
  obs::Span pass_span(hooks.tracer, 0, "bench.pass");
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Item& item = workload.items[order[k]];
    tally.attempted += 1;
    const Clock::time_point begin = Clock::now();
    check::CheckReport report;
    {
      obs::Span span(hooks.tracer, 0, item.replay_of ? "bench.replay" : "bench.check");
      report = check::check(std::move(requests[k]));
    }
    pass.checks.push_back(
        CheckRecord{order[k], seconds_since(begin), report.stats.visited, report.strategy});

    const Expect& expect = item.expect;
    bool ok = report.stats.visited == expect.visited;
    if (expect.clean) {
      ok = ok && report.clean && report.complete;
    } else {
      ok = ok && report.violation.has_value() &&
           report.violation->property == expect.property;
    }
    if (ok && item.minimize) {
      const Clock::time_point minimize_begin = Clock::now();
      obs::Span span(hooks.tracer, 0, "bench.minimize");
      const check::MinimizeResult minimized = check::minimize(
          setup.systems[item.system], setup.budgets[item.system], *report.violation);
      span.close();
      pass.minimizes.push_back(
          MinimizeRecord{order[k], seconds_since(minimize_begin), minimized.replays});
      ok = minimized.violation.property == expect.property &&
           minimized.violation.schedule.size() <= report.violation->schedule.size();
    }
    if (!ok) tally.fail(item.label + ": got " + describe(report));
  }
  pass_span.close();
  pass.seconds = seconds_since(pass_begin);
  if (hooks.metrics != nullptr) pass.registry = hooks.metrics->snapshot();
  return pass;
}

// Keeps the calibration chain from being optimized away.
volatile std::uint64_t calibration_sink = 0;

// A fixed kernel of dependent random reads over 8 MiB (more than a core's L2) plus integer
// arithmetic: it moves only with the host, never with the code under test.
double host_calibration_ms() {
  constexpr std::size_t kEntries = std::size_t{1} << 20;
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> values(kEntries);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t& value : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      value = x;
    }
    return values;
  }();
  const Clock::time_point begin = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < (1 << 20); ++i) {
    x = table[x & (kEntries - 1)] ^ (x * 0xff51afd7ed558ccdULL + 0x2545f4914f6cdd1dULL);
  }
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
  calibration_sink = x;
  return ms;
}

// Spreads a run over every CPU the process may use: each call moves the
// calling thread — and the engine workers it starts next, which inherit its
// mask — onto the next `width` CPUs in turn. Left alone, a process tends to
// stay on the vCPU it started on, and on a shared host vCPUs differ in speed
// by up to 1.5x for minutes at a time; rotating makes every run sample all
// of them alike.
class CpuRotation {
 public:
  explicit CpuRotation(int width) {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof(all_), &all_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
    width_ = std::clamp<std::size_t>(static_cast<std::size_t>(width), 1, cpus_.size());
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < width_; ++i) CPU_SET(cpus_[(turn_ + i) % cpus_.size()], &set);
    turn_ += 1;
    sched_setaffinity(0, sizeof(set), &set);
  }

  // Back to every allowed CPU.
  void release() { sched_setaffinity(0, sizeof(all_), &all_); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t width_ = 1;
  std::size_t turn_ = 0;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--root") {
      options.root = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      std::cerr << "unknown option " << key << "\n";
      return false;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0.0 ||
      (options.trace && options.trace_out.empty())) {
    std::cerr << "usage: rcons_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--root DIR [--trace-out FILE]\n";
    return false;
  }
  return true;
}

void write_registry(util::JsonWriter& json, const obs::MetricsSnapshot& snapshot) {
  json.begin_object();
  for (const obs::MetricSample& sample : snapshot) {
    json.key_value(sample.name, sample.value);
  }
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 2;
  Workload workload;
  std::string error;
  if (!load_inputs(options, workload, error)) {
    std::cerr << error << "\n";
    return 2;
  }

  std::optional<obs::Tracer> tracer;
  if (options.trace) tracer.emplace(obs::Tracer::kDefaultLanes, std::size_t{1} << 20);
  obs::MetricsRegistry registry;
  const obs::Hooks traced_hooks{&registry, tracer.has_value() ? &*tracer : nullptr};

  std::vector<double> calibration{host_calibration_ms()};
  CpuRotation rotation(workload.num_threads);
  rotation.next();

  // Set-up: parse, build and load every system the workload checks. One pass
  // is far too short to time alone, so it is repeated: 30 times here, then
  // between measured passes (below), so the samples span the whole run and
  // its host phases. The first result feeds the measured passes.
  std::vector<double> setup_s;
  std::vector<double> parse_us;
  std::vector<double> build_us;
  const auto time_setup = [&] {
    SetupTiming timing;
    const Clock::time_point begin = Clock::now();
    Setup result = run_setup(workload.inputs, traced_hooks.tracer, timing);
    setup_s.push_back(seconds_since(begin));
    parse_us.push_back(timing.parse_s * 1e6 / static_cast<double>(timing.parsed));
    build_us.push_back(timing.build_s * 1e6 / static_cast<double>(timing.built));
    return result;
  };
  const Setup setup = time_setup();
  if (!setup.errors.empty()) {
    std::cerr << "set-up: " << setup.errors.front() << "\n";
    return 2;
  }
  while (setup_s.size() < 30) time_setup();
  if (!make_items(setup, workload, error)) {
    std::cerr << error << "\n";
    return 2;
  }

  Tally tally;
  std::vector<std::size_t> order(workload.items.size());
  std::vector<std::string> first_order;
  std::mt19937_64 rng(options.seed);
  const auto next_order = [&] {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (workload.shuffle) std::shuffle(order.begin(), order.end(), rng);
    if (first_order.empty()) {
      for (const std::size_t i : order) first_order.push_back(workload.items[i].label);
    }
  };

  // One warm-up pass fills the allocator, the page tables and the caches; it
  // is checked but not measured. The peak resident set after it is what one
  // check_cli call on the workload holds.
  next_order();
  rotation.next();
  run_pass(workload, setup, order, obs::Hooks{}, tally);
  const double peak_rss = peak_rss_mib();

  // Measured passes until --seconds have gone by (at least one of each kind).
  std::vector<PassRecord> passes;
  const Clock::time_point loop_begin = Clock::now();
  do {
    next_order();
    rotation.next();
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(workload, setup, order, traced ? traced_hooks : obs::Hooks{},
                              tally));
    // Set-up passes worth 2% of the pass just measured, at least one.
    const Clock::time_point setup_begin = Clock::now();
    do {
      time_setup();
    } while (seconds_since(setup_begin) < 0.02 * passes.back().seconds);
  } while (seconds_since(loop_begin) < options.seconds ||
           (options.trace && passes.size() < 2));

  std::optional<perfbench::StageReport> stages;
  std::vector<double> reference_ns;
  if (options.trace) {
    const check::ScenarioSystem& system = setup.systems[workload.stage_system];
    const check::Budget& budget = setup.budgets[workload.stage_system];
    stages = perfbench::measure_stages(system, budget, workload.stage_driver, options.seed,
                                       4096, [&] { rotation.next(); });
    const Item* stage_item = nullptr;
    for (const Item& item : workload.items) {
      if (item.system == workload.stage_system && !item.replay_of) stage_item = &item;
    }
    if (stages->walk_visited != stage_item->expect.visited + 1) {
      tally.fail("stage walk: visited " + std::to_string(stages->walk_visited) +
                 " states, expected the root plus " +
                 std::to_string(stage_item->expect.visited));
    }
    // The program's own single-thread cost per state on the same instance,
    // once on each CPU in turn: this full-size run moves with the host far
    // more than the stage loops over a cache-resident sample do.
    for (int run = 0; run < 4; ++run) {
      rotation.next();
      check::CheckRequest request;
      request.system = system;
      request.budget = budget;
      request.strategy = workload.reference_strategy;
      request.num_threads = 1;
      const Clock::time_point begin = Clock::now();
      const check::CheckReport report = check::check(std::move(request));
      reference_ns.push_back(seconds_since(begin) * 1e9 /
                             static_cast<double>(report.stats.visited));
      tally.attempted += 1;
      if (!report.clean || report.stats.visited != stage_item->expect.visited) {
        tally.fail("reference run: got " + describe(report));
      }
    }
  }
  rotation.release();
  calibration.push_back(host_calibration_ms());

  if (tracer.has_value()) {
    {
      std::ofstream out(options.trace_out);
      tracer->write_chrome_trace(out);
      if (!out.good()) {
        std::cerr << "cannot write " << options.trace_out << "\n";
        return 2;
      }
    }
    std::ifstream in(options.trace_out);
    if (!obs::validate_chrome_trace(in, &error)) {
      std::cerr << "invalid trace " << options.trace_out << ": " << error << "\n";
      return 2;
    }
  }

  std::cout.precision(12);
  util::JsonWriter json(std::cout);
  json.begin_object();
  json.key_value("workload", options.workload);
  json.key_value("seed", options.seed);
  json.key_value("attempted", tally.attempted);
  json.key_value("failed", tally.failed);
  json.key("failures");
  json.begin_array();
  for (const std::string& failure : tally.failures) json.value(failure);
  json.end_array();
  json.key("host_calib_ms");
  json.begin_array();
  for (const double ms : calibration) json.value(ms);
  json.end_array();
  json.key("setup");
  json.begin_object();
  for (const auto& [name, values] : {std::pair{"pass_s", &setup_s},
                                     std::pair{"parse_us", &parse_us},
                                     std::pair{"build_us", &build_us}}) {
    json.key(name);
    json.begin_array();
    for (const double value : *values) json.value(value);
    json.end_array();
  }
  json.end_object();
  json.key("items");
  json.begin_array();
  for (const Item& item : workload.items) {
    json.begin_object();
    json.key_value("label", item.label);
    json.key_value("strategy", check::strategy_name(item.strategy));
    json.key_value("visited", item.expect.visited);
    json.end_object();
  }
  json.end_array();
  json.key("first_order");
  json.begin_array();
  for (const std::string& label : first_order) json.value(label);
  json.end_array();
  json.key("passes");
  json.begin_array();
  for (const PassRecord& pass : passes) {
    json.begin_object();
    json.key_value("traced", pass.traced);
    json.key_value("seconds", pass.seconds);
    json.key("checks");
    json.begin_array();
    for (const CheckRecord& record : pass.checks) {
      json.begin_array();
      json.value(record.item);
      json.value(record.seconds);
      json.value(record.visited);
      json.value(check::strategy_name(record.used));
      json.end_array();
    }
    json.end_array();
    json.key("minimize");
    json.begin_array();
    for (const MinimizeRecord& record : pass.minimizes) {
      json.begin_array();
      json.value(record.item);
      json.value(record.seconds);
      json.value(record.replays);
      json.end_array();
    }
    json.end_array();
    if (pass.traced) {
      json.key("registry");
      write_registry(json, pass.registry);
    }
    json.end_object();
  }
  json.end_array();
  if (stages.has_value()) {
    json.key("stages");
    json.begin_object();
    json.key("ns_per_call");
    json.begin_object();
    for (const auto& [stage, ns] : stages->ns_per_call) json.key_value(stage, ns);
    json.end_object();
    json.key("calls_per_state");
    json.begin_object();
    for (const auto& [stage, calls] : stages->calls_per_state) json.key_value(stage, calls);
    json.end_object();
    json.key_value("stage_sum_ns", stages->stage_sum_ns);
    json.key_value("walk_visited", stages->walk_visited);
    json.key_value("sampled_parents", stages->sampled_parents);
    json.key("reference_ns_per_state");
    json.begin_array();
    for (const double ns : reference_ns) json.value(ns);
    json.end_array();
    json.end_object();
  }
  json.key_value("peak_rss_mib", peak_rss);
  json.end_object();
  std::cout << "\n";
  return 0;
}
