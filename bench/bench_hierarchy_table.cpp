// Experiment E1/E7/E8/E9 — the hierarchy table behind Figure 1.
//
// Prints, for every zoo type, the maximum n-discerning and n-recording levels
// the checkers find, the implied cons(T) (Theorem 3) and rcons(T) bounds
// (Theorems 8 + 14, Corollary 17), and where the numbers come from. Then
// benchmarks the level computations.
#include <benchmark/benchmark.h>

#include <iostream>

#include "hierarchy/levels.hpp"
#include "typesys/zoo.hpp"
#include "util/table.hpp"

namespace {

constexpr int kCap = 6;

std::string bound_str(int value) {
  return value == rcons::hierarchy::kUnboundedLevel ? "inf" : std::to_string(value);
}

void print_table() {
  using namespace rcons;
  util::Table table({"type", "readable", "max disc.", "max rec.", "cons",
                     "rcons range", "provenance"});
  for (const typesys::ZooEntry& entry : typesys::make_zoo(5)) {
    const hierarchy::Level disc = hierarchy::max_discerning_level(*entry.type, kCap);
    const hierarchy::Level rec = hierarchy::max_recording_level(*entry.type, kCap);
    std::string cons = "n/a";
    std::string rcons_range = "n/a";
    if (entry.type->readable()) {
      const hierarchy::HierarchyBounds b = hierarchy::bounds_for_readable(disc, rec);
      cons = bound_str(b.cons);
      const std::string lo = bound_str(b.rcons_lo);
      const std::string hi = bound_str(b.rcons_hi);
      rcons_range = "[" + lo + "," + hi + "]";
    }
    table.add_row({entry.type->name(), entry.type->readable() ? "yes" : "no",
                   disc.format(), rec.format(), cons, rcons_range, entry.provenance});
  }
  std::cout << "\n=== Hierarchy table (Figure 1 companion; cap=" << kCap << ") ===\n";
  std::cout << "cons from Theorem 3; rcons range from Theorems 8/14 + Corollary 17.\n";
  std::cout << "Non-readable types: characterizations do not apply (Appendix H).\n\n";
  table.print(std::cout);
  std::cout << std::endl;
}

void BM_MaxDiscerningLevel(benchmark::State& state, const std::string& name) {
  auto type = rcons::typesys::make_type(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcons::hierarchy::max_discerning_level(*type, kCap));
  }
}

void BM_MaxRecordingLevel(benchmark::State& state, const std::string& name) {
  auto type = rcons::typesys::make_type(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcons::hierarchy::max_recording_level(*type, kCap));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_MaxDiscerningLevel, register, std::string("register"));
BENCHMARK_CAPTURE(BM_MaxDiscerningLevel, tas, std::string("test-and-set"));
BENCHMARK_CAPTURE(BM_MaxDiscerningLevel, cas, std::string("compare-and-swap"));
BENCHMARK_CAPTURE(BM_MaxDiscerningLevel, Tn5, std::string("Tn(5)"));
BENCHMARK_CAPTURE(BM_MaxDiscerningLevel, Sn5, std::string("Sn(5)"));
BENCHMARK_CAPTURE(BM_MaxRecordingLevel, register, std::string("register"));
BENCHMARK_CAPTURE(BM_MaxRecordingLevel, tas, std::string("test-and-set"));
BENCHMARK_CAPTURE(BM_MaxRecordingLevel, cas, std::string("compare-and-swap"));
BENCHMARK_CAPTURE(BM_MaxRecordingLevel, Tn5, std::string("Tn(5)"));
BENCHMARK_CAPTURE(BM_MaxRecordingLevel, Sn5, std::string("Sn(5)"));

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
