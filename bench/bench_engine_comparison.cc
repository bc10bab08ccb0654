// Experiment E8: the "who wins" table of §1/§5 — across a
// mixed query suite, OPTMINCONTEXT adheres to the best applicable bound:
// Core XPath queries run on the linear engine, Extended Wadler queries
// use bottom-up paths, and everything else falls back to MINCONTEXT, so
// OPTMINCONTEXT should never be far from the per-query winner (and the
// naive engine should only win on trivially small work).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

struct QueryCase {
  const char* label;
  const char* query;
};

int RunComparison() {
  xml::Document doc = xml::MakeGrownPaperDocument(24);  // |D| ≈ 600
  printf("E8: engine comparison, |D| = %u nodes (grown Figure 2 corpus)\n\n",
         doc.size());

  const std::vector<QueryCase> cases = {
      {"core: child chain", "/r/a/b/c"},
      {"core: nested path preds", "//b[c and not(d)]"},
      {"core: backward axes", "//c[preceding-sibling::*][following::d]"},
      {"wadler: running example",
       "/descendant::*/descendant::*[position() > last()*0.5 or "
       "self::* = 100]"},
      {"wadler: example 9",
       "/child::r/child::a/descendant::*[boolean(following::d[(position() "
       "!= last()) and (preceding-sibling::*/preceding::* = 100)]/"
       "following::d)]"},
      {"wadler: value filter", "//d[. = 100][position() = last()]"},
      {"full: nset comparison", "//b[c = d]"},
      {"full: count aggregate", "//b[count(c) = 2]"},
      {"full: string functions", "//c[string-length(.) > 4]"},
  };

  const std::vector<EngineKind> engines = {
      EngineKind::kNaive, EngineKind::kTopDown, EngineKind::kMinContext,
      EngineKind::kOptMinContext};

  printf("%-28s %-14s %10s %10s %10s %10s   %s\n", "query", "fragment",
         "naive", "topdown", "minctx", "optminctx", "winner");
  bool opt_always_close = true;
  for (const QueryCase& c : cases) {
    xpath::CompiledQuery query = MustCompile(c.query);
    std::vector<double> us;
    for (EngineKind engine : engines) {
      us.push_back(TimeEvalUs(query, doc, engine));
    }
    const size_t win = static_cast<size_t>(
        std::min_element(us.begin(), us.end()) - us.begin());
    printf("%-28s %-14s %9.0fu %9.0fu %9.0fu %9.0fu   %s\n", c.label,
           FragmentToString(query.fragment()), us[0], us[1], us[2], us[3],
           EngineKindToString(engines[win]));
    // OPTMINCONTEXT must stay within a small factor of the winner.
    if (us[3] > us[win] * 20.0 + 500.0) opt_always_close = false;
  }

  printf("\nOPTMINCONTEXT within 20x of the per-query winner everywhere: "
         "%s\n",
         opt_always_close ? "yes" : "NO (regression!)");
  return opt_always_close ? 0 : 1;
}

}  // namespace
}  // namespace xpe::bench

int main() { return xpe::bench::RunComparison(); }
