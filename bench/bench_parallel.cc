// Intra-query parallelism (src/exec/): the partitioned descendant scan
// vs. the sequential scan it splits — the claim of EvalOptions::
// parallel. The workload is the shape the feature exists for: one heavy
// full-materialization `//x` over a large document (tens of MB
// serialized), where a single step dominates and Sato et al.-style
// intra-query partitioning is the only parallelism available.
//
// Measured, on the Core XPath engine with the index off (indexed steps
// always run sequentially, so the scan is the only partitioned path):
//   - sequential evaluation (parallel off);
//   - parallel evaluation at 2 and 4 workers (min_frontier left at its
//     default: production settings, no test-only forcing).
//
// Results and EvalStats are asserted bit-identical to sequential on
// every arm — always, not just under --smoke. --smoke additionally
// exits non-zero unless the 4-worker scan run reaches ≥2.5× sequential,
// gated on hardware_concurrency() ≥ 4 (a 1-core container runs every
// chunk inline on the caller: correctness checks only). --json PATH
// writes the numbers for the uploaded perf-trajectory artifact.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

struct Arm {
  const char* name;
  uint32_t workers;  // 0 = parallel off
  double micros = 0;
  double speedup = 1.0;
};

EvalOptions ArmOptions(const Arm& arm) {
  EvalOptions options;
  options.engine = EngineKind::kCoreXPath;
  options.use_index = false;
  if (arm.workers > 0) {
    options.parallel.enabled = true;
    options.parallel.max_workers = arm.workers;
  }
  return options;
}

/// One evaluation with a stats sink, for the bit-identity assertions.
Value EvalWithStats(const xpath::CompiledQuery& query,
                    const xml::Document& doc, const EvalOptions& base,
                    EvalStats* stats) {
  EvalOptions options = base;
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

  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // One needle label per 9 fillers over enough elements that the
  // serialized document crosses 50 MB: a heavy single-step scan with a
  // large result (~1/10 of the elements), the shape intra-query
  // partitioning targets. The fillers carry realistic tag lengths so
  // the 50 MB floor is reached at a few million elements.
  std::vector<std::string> labels = {"x"};
  static const char* kFillers[] = {"record", "entry", "section", "item",
                                   "field"};
  for (int i = 0; i < 9; ++i) labels.push_back(kFillers[i % 5]);
  const int n_elements = smoke ? 3'000'000 : 4'000'000;
  printf("generating %d-element document...\n", n_elements);
  const xml::Document doc =
      xml::MakeRandomDocument(n_elements, labels, /*seed=*/2003);
  const size_t serialized_bytes = xml::Serialize(doc).size();
  printf("document: %zu nodes, %.1f MB serialized (hardware threads: %u)\n\n",
         static_cast<size_t>(doc.size()), serialized_bytes / 1e6, hw);
  if (serialized_bytes < 50u * 1000 * 1000) {
    fprintf(stderr, "FAIL: document under the 50 MB floor\n");
    return 1;
  }
  doc.WarmCaches();

  const xpath::CompiledQuery query = MustCompile("//x");

  std::vector<Arm> arms = {
      {"scan sequential", 0},
      {"scan parallel x2", 2},
      {"scan parallel x4", 4},
  };

  // Bit-identity first: every arm's full result and stats rendering must
  // equal the sequential scan reference.
  bool ok = true;
  EvalStats want_stats;
  const Value want =
      EvalWithStats(query, doc, ArmOptions(arms[0]), &want_stats);
  for (const Arm& arm : arms) {
    if (arm.workers == 0) continue;
    EvalStats stats;
    const Value got = EvalWithStats(query, doc, ArmOptions(arm), &stats);
    if (!got.StructurallyEquals(want)) {
      fprintf(stderr, "FAIL: %s result diverged from sequential\n", arm.name);
      ok = false;
    }
    if (stats.ToString() != want_stats.ToString()) {
      fprintf(stderr,
              "FAIL: %s stats diverged from sequential\n  got:  %s\n"
              "  want: %s\n",
              arm.name, stats.ToString().c_str(),
              want_stats.ToString().c_str());
      ok = false;
    }
  }

  for (Arm& arm : arms) {
    arm.micros = TimeEvalUs(query, doc, ArmOptions(arm));
    arm.speedup = arms[0].micros / arm.micros;
    printf("%-18s %12.0f us   %5.2fx\n", arm.name, arm.micros, arm.speedup);
  }

  // The scaling gate, guarded by the hardware actually present.
  const double scan_x4_speedup = arms[2].speedup;
  if (smoke) {
    if (hw >= 4 && scan_x4_speedup < 2.5) {
      fprintf(stderr,
              "FAIL: //x full materialization at 4 workers is %.2fx "
              "sequential (gate: 2.5x)\n",
              scan_x4_speedup);
      ok = false;
    }
    if (hw < 4) {
      printf("note: %u hardware thread(s) — speedup gate skipped, "
             "correctness checked\n", hw);
    }
  }

  if (json_path != nullptr) {
    FILE* f = fopen(json_path, "w");
    if (f == nullptr) {
      fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      ok = false;
    } else {
      fprintf(f,
              "{\n  \"bench\": \"bench_parallel\",\n"
              "  \"document_nodes\": %zu,\n  \"serialized_mb\": %.1f,\n"
              "  \"hardware_threads\": %u,\n  \"arms\": [\n",
              static_cast<size_t>(doc.size()), serialized_bytes / 1e6, hw);
      for (size_t i = 0; i < arms.size(); ++i) {
        fprintf(f,
                "    {\"name\": \"%s\", \"micros\": %.0f, "
                "\"speedup\": %.2f}%s\n",
                arms[i].name, arms[i].micros, arms[i].speedup,
                i + 1 < arms.size() ? "," : "");
      }
      fprintf(f, "  ],\n  \"ok\": %s\n}\n", ok ? "true" : "false");
      fclose(f);
      printf("wrote %s\n", json_path);
    }
  }

  if (!ok) return 1;
  printf("%s\n", smoke ? "smoke OK: parallel results bit-identical, scaling "
                         "within hardware limits"
                       : "done");
  return 0;
}
