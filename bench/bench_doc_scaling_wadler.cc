// Experiment E3: Theorem 10. Example 9's query is in the
// Extended Wadler Fragment; OPTMINCONTEXT evaluates its inner paths
// bottom-up through inverse axes in O(|D|²·|Q|²) time and O(|D|·|Q|²)
// table space, while plain MINCONTEXT materializes per-origin relations.
// The cells_peak counter makes the space difference directly visible.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

// Example 9 lifted onto the grown document (copies of the paper's <a>
// subtree under one <r> root).
constexpr const char* kExample9Grown =
    "/child::r/child::a/descendant::*[boolean(following::d[(position() != "
    "last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]";

void RunWadler(benchmark::State& state, EngineKind engine) {
  const int width = static_cast<int>(state.range(0));
  xml::Document doc = xml::MakeGrownPaperDocument(width);
  xpath::CompiledQuery query = MustCompile(kExample9Grown);
  for (auto _ : state) {
    Value v = MustEvaluate(query, doc, engine);
    benchmark::DoNotOptimize(&v);
  }
  state.counters["D"] = static_cast<double>(doc.size());
  EvalStats stats;
  MustEvaluate(query, doc, engine, &stats);
  state.counters["cells_peak"] = static_cast<double>(stats.cells_peak);
}

void BM_OptMinContext(benchmark::State& state) {
  RunWadler(state, EngineKind::kOptMinContext);
}
void BM_MinContext(benchmark::State& state) {
  RunWadler(state, EngineKind::kMinContext);
}

BENCHMARK(BM_OptMinContext)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinContext)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
