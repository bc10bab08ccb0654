// Experiment E1: the headline result. On the two-leaf
// document <a><b/><b/></a>, naive per-context evaluation takes time
// exponential in the size of the nested-predicate query family
//   Q_1 = //a/b,   Q_{n+1} = //a/b[Q_n]
// (the behaviour [11] measured for XALAN, XT and IE6), while every
// context-value-table engine stays polynomial. Run:
//   bench_query_growth
// and compare the growth of naive vs the other series as `depth` rises.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

std::string NestedQuery(int depth) {
  std::string q = "//a/b";
  for (int i = 1; i < depth; ++i) q = "//a/b[" + q + "]";
  return q;
}

void RunGrowth(benchmark::State& state, EngineKind engine) {
  const int depth = static_cast<int>(state.range(0));
  xml::Document doc = xml::MakeExponentialDocument();
  xpath::CompiledQuery query = MustCompile(NestedQuery(depth));
  for (auto _ : state) {
    Value v = MustEvaluate(query, doc, engine);
    benchmark::DoNotOptimize(&v);
  }
  EvalStats stats;
  MustEvaluate(query, doc, engine, &stats);
  state.counters["ctxs"] = static_cast<double>(stats.contexts_evaluated);
  state.counters["depth"] = depth;
}

void BM_Naive(benchmark::State& state) {
  RunGrowth(state, EngineKind::kNaive);
}
void BM_TopDown(benchmark::State& state) {
  RunGrowth(state, EngineKind::kTopDown);
}
void BM_BottomUp(benchmark::State& state) {
  RunGrowth(state, EngineKind::kBottomUp);
}
void BM_MinContext(benchmark::State& state) {
  RunGrowth(state, EngineKind::kMinContext);
}
void BM_OptMinContext(benchmark::State& state) {
  RunGrowth(state, EngineKind::kOptMinContext);
}
void BM_CoreXPath(benchmark::State& state) {
  RunGrowth(state, EngineKind::kCoreXPath);
}

// The naive series visibly doubles per level; stop at 18 (≈ 2¹⁸ contexts).
BENCHMARK(BM_Naive)->DenseRange(2, 18, 2)->Unit(benchmark::kMicrosecond);
// Polynomial engines sail through depth 64.
BENCHMARK(BM_TopDown)->DenseRange(8, 64, 8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BottomUp)->DenseRange(8, 64, 8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MinContext)->DenseRange(8, 64, 8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OptMinContext)
    ->DenseRange(8, 64, 8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CoreXPath)->DenseRange(8, 64, 8)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
