// Experiment E11: substrate throughput. The paper's engines
// assume the document tree, string-values and id index are available;
// this bench shows the XML substrate itself is not the bottleneck:
// parse + index throughput in MB/s, serialization, and the lazy id-axis
// build, all linear in document size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/xml/serializer.h"

namespace xpe::bench {
namespace {

std::string MakeCorpusText(int n_books) {
  xml::Document doc = xml::MakeBibliographyDocument(n_books);
  xml::SerializeOptions options;
  options.xml_declaration = true;
  return Serialize(doc, options);
}

void BM_Parse(benchmark::State& state) {
  const std::string text = MakeCorpusText(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<xml::Document> doc = xml::Parse(text);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(&doc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

void BM_Serialize(benchmark::State& state) {
  xml::Document doc =
      xml::MakeBibliographyDocument(static_cast<int>(state.range(0)));
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string out = Serialize(doc);
    bytes = static_cast<int64_t>(out.size());
    benchmark::DoNotOptimize(&out);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}

void BM_StringValues(benchmark::State& state) {
  xml::Document doc =
      xml::MakeBibliographyDocument(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    size_t total = 0;
    for (xml::NodeId n = 0; n < doc.size(); ++n) {
      total += doc.StringValue(n).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}

void BM_IdAxisBuild(benchmark::State& state) {
  const std::string text = MakeCorpusText(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // Reparse each iteration: the id-axis index is built once per doc.
    StatusOr<xml::Document> doc = xml::Parse(text);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc->IdAxisForward(0).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_Parse)->Range(100, 10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Serialize)->Range(100, 10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StringValues)->Range(100, 10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IdAxisBuild)->Range(100, 3000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpe::bench

BENCHMARK_MAIN();
