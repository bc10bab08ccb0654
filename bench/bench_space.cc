// Experiment E5: the space claims. Wall-clock cannot observe
// memory bounds, so this harness reads the engines' instrumented
// context-value-table cell counts (EvalStats::cells_peak) and prints one
// table per query class:
//   E↑  ~ |D|³ rows per scalar expression   ([11] §2.3)
//   E↓  ~ |D|² pair cells without relevance restriction
//   MINCONTEXT ~ |D|² (Theorem 7)
//   OPTMINCONTEXT on Wadler queries ~ |D|   (Theorem 10)
// The printed `growth` column is the log₂ cell ratio between successive
// |D| doublings: ≈1 linear, ≈2 quadratic, ≈3 cubic.

// The index-tier section extends the space story to the *indexes*: the
// flat DocumentIndex (hot) vs the succinct tier (dense), in absolute
// MemoryUsageBytes per tier on documents up to >10 MB serialized. Under
// --smoke the largest document gates dense ≤ 40% of hot.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"

namespace xpe::bench {
namespace {

struct Series {
  const char* label;
  EngineKind engine;
  const char* query;
  std::vector<int> widths;  // generator parameter sweep
  /// Document family; defaults to the grown Figure 2 corpus (wide &
  /// shallow). Chains (deep & narrow) expose the quadratic pair
  /// relations that wide documents hide.
  xml::Document (*make_doc)(int) = &xml::MakeGrownPaperDocument;
};

void PrintSeries(const Series& series) {
  printf("\n%s\n  engine=%s\n  query=%s\n", series.label,
         EngineKindToString(series.engine), series.query);
  // cells_peak is the paper's metric: peak *logical* table cells, charged
  // when rows are committed. arena_KiB is the real footprint of the
  // session arena those flat tables live in — monotonic within one
  // evaluation, so it upper-bounds (and tracks) the cell curve without
  // ever replacing it in the growth analysis.
  printf("  %8s %14s %8s %10s\n", "|D|", "cells_peak", "growth",
         "arena_KiB");
  xpath::CompiledQuery query = MustCompile(series.query);
  double prev_cells = 0;
  for (int width : series.widths) {
    xml::Document doc = series.make_doc(width);
    EvalStats stats;
    MustEvaluate(query, doc, series.engine, &stats);
    const double cells = static_cast<double>(stats.cells_peak);
    const double arena_kib =
        static_cast<double>(stats.arena_bytes_peak) / 1024.0;
    if (prev_cells > 0) {
      printf("  %8u %14.0f %8.2f %10.1f\n", doc.size(), cells,
             std::log2(cells / prev_cells), arena_kib);
    } else {
      printf("  %8u %14.0f %8s %10.1f\n", doc.size(), cells, "-", arena_kib);
    }
    prev_cells = cells;
  }
}

/// Per-tier index footprint vs document size. Returns false when the
/// gate (dense ≤ 40% of hot, checked on the ≥10 MB document) fails.
bool PrintTierSeries(bool smoke) {
  printf("\nIndex tiers: per-tier MemoryUsageBytes vs |D|\n");
  printf("  %9s %8s %12s %12s %8s\n", "elements", "ser_MB", "hot_bytes",
         "dense_bytes", "pct");
  bool ok = true;
  bool gated = false;
  for (int n : {10'000, 100'000, 1'000'000}) {
    const xml::Document doc = xml::MakeRandomDocument(
        n, {"x", "record", "entry", "section", "item"}, /*seed=*/2003);
    const double ser_mb = xml::Serialize(doc).size() / 1e6;
    const size_t hot = doc.index().MemoryUsageBytes();
    const size_t dense = doc.succinct_index().MemoryUsageBytes();
    const double pct =
        100.0 * static_cast<double>(dense) / static_cast<double>(hot);
    printf("  %9d %8.1f %12zu %12zu %7.1f%%\n", n, ser_mb, hot, dense, pct);
    if (smoke && ser_mb >= 10.0) {
      gated = true;
      if (pct > 40.0) {
        fprintf(stderr,
                "FAIL: dense tier is %.1f%% of hot bytes at %.1f MB "
                "(gate: 40%%)\n", pct, ser_mb);
        ok = false;
      }
    }
  }
  if (smoke && !gated) {
    fprintf(stderr, "FAIL: no document reached the 10 MB gate floor\n");
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace xpe::bench

int main(int argc, char** argv) {
  using xpe::EngineKind;
  using xpe::bench::PrintSeries;
  using xpe::bench::PrintTierSeries;
  using xpe::bench::Series;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // One positional predicate so every engine builds real tables.
  constexpr const char* kFullQuery =
      "/descendant::*/descendant::*[position() > last()*0.5 or "
      "self::* = 100]";
  // Example 9 (Wadler fragment), adapted to the grown document.
  constexpr const char* kWadlerQuery =
      "/child::r/child::a/descendant::*[boolean(following::d[(position() != "
      "last()) and (preceding-sibling::*/preceding::* = 100)]/"
      "following::d)]";

  printf("E5: peak context-value-table cells vs |D| "
         "(growth: log2 ratio per |D| doubling)\n");

  PrintSeries(Series{"E-up (full tables, expect growth ~3)",
                     EngineKind::kBottomUp, kFullQuery, {1, 2, 4}});
  PrintSeries(Series{"E-down, wide documents (pair sets stay linear here)",
                     EngineKind::kTopDown, kFullQuery, {2, 4, 8, 16, 32}});
  PrintSeries(Series{"MINCONTEXT, wide documents (relevance-restricted)",
                     EngineKind::kMinContext, kFullQuery, {2, 4, 8, 16, 32}});
  // Deep chains: descendant steps relate Θ(|D|²) pairs. E↓ materializes
  // them; MINCONTEXT's outermost paths stay sets (§3.1's "special
  // treatment of location paths on the outermost level").
  PrintSeries(Series{"E-down, chain documents (expect growth ~2)",
                     EngineKind::kTopDown, kFullQuery,
                     {32, 64, 128, 256},
                     &xpe::xml::MakeChainDocument});
  PrintSeries(Series{"MINCONTEXT, chain documents (expect growth ~1)",
                     EngineKind::kMinContext, kFullQuery,
                     {32, 64, 128, 256},
                     &xpe::xml::MakeChainDocument});
  PrintSeries(Series{"OPTMINCONTEXT on a Wadler query (expect growth ~1)",
                     EngineKind::kOptMinContext, kWadlerQuery,
                     {2, 4, 8, 16, 32, 64}});
  PrintSeries(Series{"MINCONTEXT on the same Wadler query (expect ~2)",
                     EngineKind::kMinContext, kWadlerQuery,
                     {2, 4, 8, 16, 32}});
  if (!PrintTierSeries(smoke)) return 1;
  if (smoke) printf("\nsmoke OK: dense tier within the 40%% space gate\n");
  return 0;
}
