// Experiment E9: the O(|D|) axis-computation lemma of [11]
// restated in §2.1 — χ(X) and χ⁻¹(X) in time linear in the document.
// items_per_second (nodes/s) should stay roughly constant per axis as
// |D| grows; superlinear axes would show a falling rate.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

xml::Document MakeDoc(int n) {
  return xml::MakeRandomDocument(n, {"a", "b", "c", "d"}, /*seed=*/12345);
}

NodeSet MakeOrigins(const xml::Document& doc) {
  // Every seventh node: a representative mid-sized X.
  NodeSet x;
  for (xml::NodeId id = 0; id < doc.size(); id += 7) x.PushBackOrdered(id);
  return x;
}

void BM_Axis(benchmark::State& state) {
  const Axis axis = static_cast<Axis>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  xml::Document doc = MakeDoc(n);
  if (axis == Axis::kId) doc.IdAxisForward(0);  // build the index once
  NodeSet x = MakeOrigins(doc);
  for (auto _ : state) {
    NodeSet result = EvalAxis(doc, axis, x);
    benchmark::DoNotOptimize(&result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
  state.SetLabel(AxisToString(axis));
}

void BM_AxisInverse(benchmark::State& state) {
  const Axis axis = static_cast<Axis>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  xml::Document doc = MakeDoc(n);
  if (axis == Axis::kId) doc.IdAxisForward(0);
  NodeSet y = MakeOrigins(doc);
  for (auto _ : state) {
    NodeSet result = EvalAxisInverse(doc, axis, y);
    benchmark::DoNotOptimize(&result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
  state.SetLabel(std::string(AxisToString(axis)) + "^-1");
}

void AxisArgs(benchmark::internal::Benchmark* b) {
  for (int axis = 0; axis < xpe::kNumAxes; ++axis) {
    for (int n : {1000, 8000, 64000}) {
      b->Args({axis, n});
    }
  }
}

BENCHMARK(BM_Axis)->Apply(AxisArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AxisInverse)->Apply(AxisArgs)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
