// Experiment E5 — Figure 5 / Proposition 19: the T_n family separates the
// hierarchies. Regenerates the transition diagram for T_6 and the sweep
// "T_n is n-discerning, (n-2)-recording, but not (n-1)-recording".
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "typesys/types/tn.hpp"
#include "util/table.hpp"

namespace {

using namespace rcons;

void print_transition_diagram(int n) {
  typesys::TnType tn(n);
  const auto ops = tn.operations(n);
  std::cout << "--- T_" << n << " transition table (Figure 5) ---\n";
  for (const typesys::StateRepr& q : tn.initial_states(n)) {
    std::cout << tn.format_state(q) << ":";
    for (const typesys::Operation& op : ops) {
      const typesys::Transition t = tn.apply(q, op);
      const char* resp = t.response == typesys::TnType::kRespA ? "A" : "B";
      std::cout << "  " << op.name << "-> " << tn.format_state(t.next) << " (ret "
                << resp << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

void print_sweep() {
  util::Table table({"n", "n-discerning", "(n-1)-recording", "(n-2)-recording",
                     "cons(Tn)", "rcons(Tn) range"});
  for (int n = 4; n <= 8; ++n) {
    typesys::TnType tn(n);
    const bool disc_n = hierarchy::is_discerning(tn, n);
    const bool rec_n1 = hierarchy::is_recording(tn, n - 1);
    const bool rec_n2 = hierarchy::is_recording(tn, n - 2);
    const std::string lo = std::to_string(n - 2);
    const std::string hi = std::to_string(n - 1);
    table.add_row({std::to_string(n), disc_n ? "yes" : "NO",
                   rec_n1 ? "YES (unexpected)" : "no", rec_n2 ? "yes" : "NO",
                   std::to_string(n), "[" + lo + "," + hi + "]"});
  }
  std::cout << "=== Proposition 19 sweep: rcons(Tn) < cons(Tn) = n ===\n\n";
  table.print(std::cout);
  std::cout << std::endl;
}

void BM_TnDiscerningCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  typesys::TnType tn(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy::is_discerning(tn, n));
  }
}

void BM_TnNotRecordingCheck(benchmark::State& state) {
  // The exhaustive failure proof — the expensive direction.
  const int n = static_cast<int>(state.range(0));
  typesys::TnType tn(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy::is_recording(tn, n - 1));
  }
}

}  // namespace

BENCHMARK(BM_TnDiscerningCheck)->DenseRange(4, 8);
BENCHMARK(BM_TnNotRecordingCheck)->DenseRange(4, 8);

int main(int argc, char** argv) {
  print_transition_diagram(6);
  print_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
