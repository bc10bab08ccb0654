// Experiment E4: Theorem 13 — Core XPath evaluates in
// O(|D|·|Q|). Sweeps |D| on complete trees for a Core XPath query with
// nested path predicates; the per-node time of the corexpath series must
// stay flat (linear total), with MINCONTEXT alongside for contrast.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

constexpr const char* kCoreQuery =
    "//n[leaf and not(n/n)]/n[following-sibling::n[leaf]]";

void RunCore(benchmark::State& state, EngineKind engine) {
  const int depth = static_cast<int>(state.range(0));
  xml::Document doc = xml::MakeCompleteTreeDocument(/*fanout=*/2, depth);
  xpath::CompiledQuery query = MustCompile(kCoreQuery);
  for (auto _ : state) {
    Value v = MustEvaluate(query, doc, engine);
    benchmark::DoNotOptimize(&v);
  }
  state.counters["D"] = static_cast<double>(doc.size());
  // time/|D| ratio is the linearity witness; google-benchmark computes
  // items_per_second from this.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}

void BM_CoreXPath(benchmark::State& state) {
  RunCore(state, EngineKind::kCoreXPath);
}
void BM_OptMinContext(benchmark::State& state) {
  // Dispatches to the linear engine (Theorem 13) — same shape expected.
  RunCore(state, EngineKind::kOptMinContext);
}
void BM_MinContext(benchmark::State& state) {
  RunCore(state, EngineKind::kMinContext);
}

BENCHMARK(BM_CoreXPath)->DenseRange(6, 14, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptMinContext)
    ->DenseRange(6, 14, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinContext)->DenseRange(6, 10, 2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
