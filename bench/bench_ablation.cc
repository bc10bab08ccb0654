// Experiment E10: ablations of MINCONTEXT's individual ideas
// (§3.1), isolating what each one buys:
//
//  idea 2, "special treatment of location paths on the outermost level"
//    — EvalOptions::ablate_outermost_sets forces outermost paths through
//      the inner pair-relation machinery. On deep documents the ablated
//      variant's peak table cells grow quadratically, the full algorithm
//      linearly.
//
//  idea 3, "treating position and size in a loop" + §4 bottom-up paths
//    — approximated by the MINCONTEXT ↔ OPTMINCONTEXT pair on a Wadler
//      query (E3 measures this too; repeated here for one-stop reading).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

void PrintRow(const char* label, const xml::Document& doc,
              const xpath::CompiledQuery& query, EngineKind engine,
              bool ablate, double* prev_cells) {
  EvalStats stats;
  EvalOptions options;
  options.engine = engine;
  options.stats = &stats;
  options.ablate_outermost_sets = ablate;
  options.use_index = false;  // measure the paper's algorithm, not the index
  StatusOr<Value> v = Evaluate(query, doc, EvalContext{}, options);
  if (!v.ok()) {
    fprintf(stderr, "%s\n", v.status().ToString().c_str());
    std::abort();
  }
  const double cells = static_cast<double>(stats.cells_peak);
  if (*prev_cells > 0) {
    printf("  %-10s %8u %14.0f %8.2f\n", label, doc.size(), cells,
           std::log2(cells / *prev_cells));
  } else {
    printf("  %-10s %8u %14.0f %8s\n", label, doc.size(), cells, "-");
  }
  *prev_cells = cells;
}

}  // namespace
}  // namespace xpe::bench

int main() {
  using namespace xpe;
  using namespace xpe::bench;

  printf("E10: ablation of MINCONTEXT's ideas (peak table cells; growth = "
         "log2 ratio per |D| doubling)\n");

  xpath::CompiledQuery query = MustCompile(
      "/descendant::*/descendant::*[position() > last()*0.5 or "
      "self::* = 100]");

  printf("\nidea 2 ablated: outermost paths as pair relations "
         "(expect growth ~2 on chains)\n");
  printf("  %-10s %8s %14s %8s\n", "variant", "|D|", "cells_peak", "growth");
  double prev = 0;
  for (int depth : {32, 64, 128, 256}) {
    xml::Document doc = xml::MakeChainDocument(depth);
    PrintRow("ablated", doc, query, EngineKind::kMinContext,
             /*ablate=*/true, &prev);
  }
  printf("\nfull MINCONTEXT (expect growth ~1 on the same chains)\n");
  printf("  %-10s %8s %14s %8s\n", "variant", "|D|", "cells_peak", "growth");
  prev = 0;
  for (int depth : {32, 64, 128, 256}) {
    xml::Document doc = xml::MakeChainDocument(depth);
    PrintRow("full", doc, query, EngineKind::kMinContext,
             /*ablate=*/false, &prev);
  }

  printf("\nidea: §4 bottom-up paths on a Wadler query "
         "(OPTMINCONTEXT vs MINCONTEXT, cf. E3)\n");
  xpath::CompiledQuery wadler = MustCompile(
      "/child::r/child::a/descendant::*[boolean(following::d[(position() != "
      "last()) and (preceding-sibling::*/preceding::* = 100)]/"
      "following::d)]");
  printf("  %-10s %8s %14s %8s\n", "variant", "|D|", "cells_peak", "growth");
  prev = 0;
  for (int width : {4, 8, 16, 32}) {
    xml::Document doc = xml::MakeGrownPaperDocument(width);
    PrintRow("bottom-up", doc, wadler, EngineKind::kOptMinContext,
             /*ablate=*/false, &prev);
  }
  printf("  %-10s %8s %14s %8s\n", "variant", "|D|", "cells_peak", "growth");
  prev = 0;
  for (int width : {4, 8, 16, 32}) {
    xml::Document doc = xml::MakeGrownPaperDocument(width);
    PrintRow("plain", doc, wadler, EngineKind::kMinContext,
             /*ablate=*/false, &prev);
  }
  return 0;
}
