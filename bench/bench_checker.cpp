// Experiment E12 — methodological: the cost of deciding the paper's
// properties. Positive verdicts (witness exists) are found via the heuristic
// pre-pass; negative verdicts require the exhaustive multiset enumeration and
// dominate. The model checker's own cost (check::check on the Figure 2
// algorithm) is timed by perfbench's spec-sweep workload.
#include <benchmark/benchmark.h>

#include <iostream>

#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "typesys/types/sn.hpp"
#include "typesys/types/tn.hpp"

namespace {

using namespace rcons;

void BM_PositiveRecording(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  typesys::SnType sn(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy::is_recording(sn, n));
  }
}

void BM_NegativeRecording(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  typesys::SnType sn(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy::is_recording(sn, n + 1));
  }
}

void BM_NegativeDiscerning(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  typesys::TnType tn(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy::is_discerning(tn, n + 1));
  }
}

}  // namespace

BENCHMARK(BM_PositiveRecording)->DenseRange(2, 8);
BENCHMARK(BM_NegativeRecording)->DenseRange(2, 8);
BENCHMARK(BM_NegativeDiscerning)->DenseRange(4, 8);

int main(int argc, char** argv) {
  std::cout << "=== E12: decision-procedure cost ===\n"
            << "Positive checks short-circuit via the heuristic pre-pass;\n"
            << "negative checks pay for exhaustive enumeration.\n\n";
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
