// Experiment E2: document scaling on a full-XPath query —
// the paper's running example (Figure 3), which mixes position()/last()
// arithmetic with a value comparison. Compares E↓ (Definition 2,
// O(|D|⁵·|Q|²)) against MINCONTEXT (Theorem 7, O(|D|⁴·|Q|²)) and
// OPTMINCONTEXT as |D| grows; the MINCONTEXT series must grow with a
// visibly smaller exponent than E↓'s.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

constexpr const char* kRunningExample =
    "/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]";

void RunDocScaling(benchmark::State& state, EngineKind engine) {
  const int width = static_cast<int>(state.range(0));
  xml::Document doc = xml::MakeGrownPaperDocument(width);
  xpath::CompiledQuery query = MustCompile(kRunningExample);
  for (auto _ : state) {
    Value v = MustEvaluate(query, doc, engine);
    benchmark::DoNotOptimize(&v);
  }
  state.counters["D"] = static_cast<double>(doc.size());
  EvalStats stats;
  MustEvaluate(query, doc, engine, &stats);
  state.counters["cells_peak"] = static_cast<double>(stats.cells_peak);
}

void BM_TopDown(benchmark::State& state) {
  RunDocScaling(state, EngineKind::kTopDown);
}
void BM_MinContext(benchmark::State& state) {
  RunDocScaling(state, EngineKind::kMinContext);
}
void BM_OptMinContext(benchmark::State& state) {
  RunDocScaling(state, EngineKind::kOptMinContext);
}

BENCHMARK(BM_TopDown)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinContext)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptMinContext)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
