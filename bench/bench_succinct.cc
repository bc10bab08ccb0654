// The compressed index tier (src/succinct/): Elias-Fano postings vs. the
// flat DocumentIndex's sorted vectors (both tiers hold postings only), on
// a document whose serialization crosses 10 MB. Three claims are
// measured and, under --smoke, gated:
//
//   1. space  — the dense tier's MemoryUsageBytes() is ≤ 40% of the hot
//      tier's on the ≥10 MB document;
//   2. time   — full materialization of `//x` on the dense tier stays
//      within 3× the hot tier's wall clock (EF decode vs. memcpy);
//   3. counting — Count(//x) through the dispatcher's CountInRange fast
//      path visits ≥ 100× fewer nodes than materializing the set
//      (EvalStats::nodes_visited, the counter wall-clock can't fake).
//
// Results are asserted bit-identical between tiers on an engine × result
// mode mini-matrix — always, not just under --smoke (the full matrix
// lives in differential_test.cc). --json PATH writes the numbers
// for the uploaded perf-trajectory artifact.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"

namespace xpe::bench {
namespace {

EvalOptions TierOptions(index::IndexTier tier, EngineKind engine,
                        ResultMode mode) {
  EvalOptions options;
  options.engine = engine;
  options.use_index = true;
  options.index_tier = tier;
  options.result.mode = mode;
  if (mode == ResultMode::kLimit) options.result.limit = 100;
  return options;
}

Value EvalWithStats(const xpath::CompiledQuery& query,
                    const xml::Document& doc, EvalOptions options,
                    EvalStats* stats) {
  options.stats = stats;
  StatusOr<Value> v = Evaluate(query, doc, EvalContext{}, options);
  if (!v.ok()) {
    fprintf(stderr, "eval(%s): %s\n", query.source().c_str(),
            v.status().ToString().c_str());
    std::abort();
  }
  return std::move(v).value();
}

}  // namespace
}  // namespace xpe::bench

int main(int argc, char** argv) {
  using namespace xpe;
  using namespace xpe::bench;
  using index::IndexTier;

  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // ~1/10 of the elements carry the needle tag "x"; realistic tag lengths
  // push the serialization over the 10 MB gate floor well under a million
  // elements.
  std::vector<std::string> labels = {"x"};
  static const char* kFillers[] = {"record", "entry", "section", "item",
                                   "field"};
  for (int i = 0; i < 9; ++i) labels.push_back(kFillers[i % 5]);
  const int n_elements = 1'000'000;
  printf("generating %d-element document...\n", n_elements);
  const xml::Document doc =
      xml::MakeRandomDocument(n_elements, labels, /*seed=*/2003);
  const size_t serialized_bytes = xml::Serialize(doc).size();
  printf("document: %zu nodes, %.1f MB serialized\n",
         static_cast<size_t>(doc.size()), serialized_bytes / 1e6);
  bool ok = true;
  if (serialized_bytes < 10u * 1000 * 1000) {
    fprintf(stderr, "FAIL: document under the 10 MB floor\n");
    ok = false;
  }

  // --- space: per-tier index bytes ---------------------------------------
  const size_t hot_bytes = doc.index().MemoryUsageBytes();
  const size_t dense_bytes = doc.succinct_index().MemoryUsageBytes();
  const double pct = 100.0 * static_cast<double>(dense_bytes) /
                     static_cast<double>(hot_bytes);
  printf("\nindex bytes:  hot %10zu  dense %10zu  (%.1f%% of hot)\n",
         hot_bytes, dense_bytes, pct);
  if (smoke && pct > 40.0) {
    fprintf(stderr, "FAIL: dense tier is %.1f%% of hot bytes (gate: 40%%)\n",
            pct);
    ok = false;
  }

  // --- bit-identity mini-matrix (the full one is differential_test.cc) ---
  const xpath::CompiledQuery query = MustCompile("//x");
  const ResultMode kModes[] = {ResultMode::kFull, ResultMode::kFirst,
                               ResultMode::kExists, ResultMode::kCount,
                               ResultMode::kLimit};
  for (EngineKind engine :
       {EngineKind::kCoreXPath, EngineKind::kOptMinContext}) {
    for (ResultMode mode : kModes) {
      EvalStats hot_stats, dense_stats;
      const Value hot = EvalWithStats(
          query, doc, TierOptions(IndexTier::kHot, engine, mode), &hot_stats);
      const Value dense = EvalWithStats(
          query, doc, TierOptions(IndexTier::kDense, engine, mode),
          &dense_stats);
      if (!hot.StructurallyEquals(dense)) {
        fprintf(stderr, "FAIL: %s/%s diverged across tiers\n",
                EngineKindToString(engine), ResultModeToString(mode));
        ok = false;
      }
      if (hot_stats.ToString() != dense_stats.ToString()) {
        fprintf(stderr,
                "FAIL: %s/%s stats diverged across tiers\n"
                "  hot:   %s\n  dense: %s\n",
                EngineKindToString(engine), ResultModeToString(mode),
                hot_stats.ToString().c_str(), dense_stats.ToString().c_str());
        ok = false;
      }
    }
  }
  printf("bit-identity: hot == dense on 2 engines x 5 modes\n");

  // --- time: full materialization per tier -------------------------------
  const double hot_us = TimeEvalUs(
      query, doc,
      TierOptions(IndexTier::kHot, EngineKind::kCoreXPath, ResultMode::kFull));
  const double dense_us = TimeEvalUs(
      query, doc,
      TierOptions(IndexTier::kDense, EngineKind::kCoreXPath,
                  ResultMode::kFull));
  const double ratio = dense_us / hot_us;
  printf("\n//x full:     hot %9.0f us  dense %9.0f us  (%.2fx)\n", hot_us,
         dense_us, ratio);
  if (smoke && ratio > 3.0) {
    fprintf(stderr, "FAIL: dense full materialization is %.2fx hot "
                    "(gate: 3x)\n", ratio);
    ok = false;
  }

  // --- counting: the CountInRange fast path vs. materializing ------------
  EvalStats fast_stats, full_stats;
  const Value fast = EvalWithStats(
      query, doc,
      TierOptions(IndexTier::kDense, EngineKind::kCoreXPath,
                  ResultMode::kCount),
      &fast_stats);
  const Value full = EvalWithStats(
      query, doc,
      TierOptions(IndexTier::kDense, EngineKind::kCoreXPath,
                  ResultMode::kFull),
      &full_stats);
  if (fast_stats.count_fast_path != 1) {
    fprintf(stderr, "FAIL: Count(//x) did not take the fast path (stats: %s)\n",
            fast_stats.ToString().c_str());
    ok = false;
  }
  if (fast.number() != static_cast<double>(full.node_set().size())) {
    fprintf(stderr, "FAIL: fast-path count %f != materialized size %zu\n",
            fast.number(), full.node_set().size());
    ok = false;
  }
  printf("Count(//x):   fast path %llu nodes_visited vs %llu materializing "
         "(%.0fx fewer)\n",
         static_cast<unsigned long long>(fast_stats.nodes_visited),
         static_cast<unsigned long long>(full_stats.nodes_visited),
         static_cast<double>(full_stats.nodes_visited) /
             static_cast<double>(fast_stats.nodes_visited));
  if (smoke &&
      fast_stats.nodes_visited * 100 > full_stats.nodes_visited) {
    fprintf(stderr,
            "FAIL: fast path visited %llu nodes, not >=100x fewer than "
            "%llu\n",
            static_cast<unsigned long long>(fast_stats.nodes_visited),
            static_cast<unsigned long long>(full_stats.nodes_visited));
    ok = false;
  }

  if (json_path != nullptr) {
    FILE* f = fopen(json_path, "w");
    if (f == nullptr) {
      fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      ok = false;
    } else {
      fprintf(f,
              "{\n  \"bench\": \"bench_succinct\",\n"
              "  \"document_nodes\": %zu,\n  \"serialized_mb\": %.1f,\n"
              "  \"hot_index_bytes\": %zu,\n  \"dense_index_bytes\": %zu,\n"
              "  \"dense_pct_of_hot\": %.1f,\n"
              "  \"hot_full_us\": %.0f,\n  \"dense_full_us\": %.0f,\n"
              "  \"dense_over_hot\": %.2f,\n"
              "  \"count_fast_nodes_visited\": %llu,\n"
              "  \"count_full_nodes_visited\": %llu,\n"
              "  \"ok\": %s\n}\n",
              static_cast<size_t>(doc.size()), serialized_bytes / 1e6,
              hot_bytes, dense_bytes, pct, hot_us, dense_us, ratio,
              static_cast<unsigned long long>(fast_stats.nodes_visited),
              static_cast<unsigned long long>(full_stats.nodes_visited),
              ok ? "true" : "false");
      fclose(f);
      printf("wrote %s\n", json_path);
    }
  }

  if (!ok) return 1;
  printf("%s\n", smoke ? "smoke OK: dense tier within space/time gates, "
                         "count fast path sublinear"
                       : "done");
  return 0;
}
