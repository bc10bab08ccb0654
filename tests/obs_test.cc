// The observability tier (src/obs/): metric primitives, the registry's
// concurrency contract (the TSan CI job runs this whole binary), the
// exporters' round-trip through instrumented subsystems, and — most
// load-bearing — the profiler differential: attaching a QueryProfile
// sink must not change any result or any EvalStats counter, across
// engines × index modes × result modes, and the profiler's per-step
// nodes_visited rows must sum to exactly EvalStats::nodes_visited.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace xpe {
namespace {

using obs::Histogram;
using obs::Registry;

// --- metric primitives ----------------------------------------------------

TEST(CounterTest, AddIncrementMaxWithReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.MaxWith(10);  // below: no-op
  EXPECT_EQ(c.value(), 42u);
  c.MaxWith(100);
  EXPECT_EQ(c.value(), 100u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, BucketsQuantilesAndMax) {
  Histogram h;
  // 98 fast observations, 2 slow ones: p50 lands in the fast bucket,
  // p99 in the slow one, and every quantile clamps to the observed max.
  for (int i = 0; i < 98; ++i) h.Record(3);
  h.Record(1000);
  h.Record(900);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 98u * 3 + 1900);
  EXPECT_EQ(h.max(), 1000u);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.p50, 3u);  // bucket [2,4): upper bound 3
  EXPECT_LE(s.p99, 1000u);
  EXPECT_GE(s.p99, 512u);  // inside the slow observations' bucket
  EXPECT_EQ(s.Quantile(1.0), 1000u);
  EXPECT_EQ(Histogram::Snapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::Snapshot::BucketUpperBound(3), 7u);
}

TEST(HistogramTest, ZeroAndHugeValuesLandInEndBuckets) {
  Histogram h;
  h.Record(0);
  h.Record(~uint64_t{0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(s.Quantile(1.0), ~uint64_t{0});
}

TEST(HistogramTest, MergeIsBucketwise) {
  Histogram a, b;
  a.Record(5);
  b.Record(5);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 310u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_EQ(a.snapshot().buckets[3], 2u);  // two 5s in [4,8)
}

TEST(RegistryTest, StablePointersAndSortedSnapshot) {
  Registry r;
  obs::Counter* c1 = r.GetCounter("xpe_test_b");
  obs::Counter* c2 = r.GetCounter("xpe_test_b");
  EXPECT_EQ(c1, c2);  // same name resolves to the same metric forever
  r.GetCounter("xpe_test_a")->Add(7);
  c1->Add(1);
  r.GetHistogram("xpe_test_h")->Record(10);
  const Registry::MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "xpe_test_a");  // sorted by name
  EXPECT_EQ(snap.counters[0].second, 7u);
  EXPECT_EQ(snap.counters[1].first, "xpe_test_b");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  r.Reset();
  EXPECT_EQ(c1->value(), 0u);  // pointers stay valid across Reset
}

// The registry's whole concurrency contract in one test: concurrent
// registration (same and different names), concurrent updates through
// shared metric pointers, and concurrent snapshots. Run under TSan by
// the CI tsan job; any lock or ordering bug in the stripes is a report.
TEST(RegistryTest, ConcurrentHammer) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      const std::string own = "xpe_hammer_own_" + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        r.GetCounter("xpe_hammer_shared")->Increment();
        r.GetCounter(own)->Increment();
        r.GetHistogram("xpe_hammer_lat_us")->Record(
            static_cast<uint64_t>(i % 97));
      }
    });
  }
  threads.emplace_back([&r] {
    for (int i = 0; i < 50; ++i) {
      const Registry::MetricsSnapshot snap = r.Snapshot();
      (void)obs::ToJson(r);
      (void)snap;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(r.GetCounter("xpe_hammer_shared")->value(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(r.GetHistogram("xpe_hammer_lat_us")->count(),
            static_cast<uint64_t>(kThreads) * kOps);
}

// --- exporters ------------------------------------------------------------

TEST(ExportTest, JsonAndPrometheusRoundTripInstrumentedSubsystems) {
  // Two private registries fed by the real serve-tier subsystems: one
  // for a standalone PlanCache (counters + compile-time histogram), one
  // for a BatchEvaluator — whose *internal* PlanCache publishes into
  // the pool's registry, which is why the cache counts are kept apart.
  Registry cache_reg;
  batch::PlanCache cache(4, {}, &cache_reg);
  ASSERT_TRUE(cache.GetOrCompile("//a").ok());
  ASSERT_TRUE(cache.GetOrCompile("//a").ok());  // hit
  ASSERT_TRUE(cache.GetOrCompile("//b").ok());  // miss
  const std::string cache_json = obs::ToJson(cache_reg);
  EXPECT_NE(cache_json.find("\"xpe_plan_cache_hits_total\": 1"),
            std::string::npos)
      << cache_json;
  EXPECT_NE(cache_json.find("\"xpe_plan_cache_misses_total\": 2"),
            std::string::npos)
      << cache_json;
  EXPECT_NE(cache_json.find("\"xpe_plan_cache_compile_us\": {\"count\": 2"),
            std::string::npos)
      << cache_json;

  const xml::Document doc = test::MustParse("<r><a/><b/><a/></r>");
  Registry r;
  batch::BatchOptions options;
  options.workers = 2;
  options.registry = &r;
  batch::BatchEvaluator pool(options);
  std::vector<batch::BatchItem> items(8);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {i % 2 == 0 ? "//a" : "count(//b)", &doc, {}, {}};
  }
  const std::vector<batch::BatchResult> results = pool.EvaluateAll(items);
  for (const batch::BatchResult& res : results) ASSERT_TRUE(res.value.ok());

  const std::string json = obs::ToJson(r);
  // The pool's own PlanCache saw 2 distinct queries over 8 items. Two
  // workers racing on a new query both compile it and both count a miss
  // (PlanCache's contract), so each query costs one or two misses.
  const uint64_t hits = r.GetCounter("xpe_plan_cache_hits_total")->value();
  const uint64_t misses = r.GetCounter("xpe_plan_cache_misses_total")->value();
  EXPECT_EQ(hits + misses, 8u) << json;
  EXPECT_GE(misses, 2u) << json;
  EXPECT_LE(misses, 4u) << json;
  EXPECT_NE(json.find("\"xpe_plan_cache_hits_total\": " + std::to_string(hits)),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"xpe_plan_cache_misses_total\": " + std::to_string(misses)),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"xpe_batch_items_total\": 8"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"xpe_batch_item_latency_us\": {\"count\": 8"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"xpe_session_evals_total\": 8"), std::string::npos)
      << json;

  const std::string prom = obs::ToPrometheusText(r);
  EXPECT_NE(prom.find("# TYPE xpe_batch_items_total counter\n"
                      "xpe_batch_items_total 8"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE xpe_batch_item_latency_us histogram"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("xpe_batch_item_latency_us_bucket{le=\"+Inf\"} 8"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("xpe_batch_item_latency_us_count 8"), std::string::npos)
      << prom;
  // Queue-wait and utilization series exist (values are timing-
  // dependent; presence is the contract).
  EXPECT_NE(prom.find("xpe_batch_queue_wait_us_count"), std::string::npos);
  EXPECT_NE(prom.find("xpe_batch_worker_utilization_pct_count"),
            std::string::npos);
}

TEST(ExportTest, SanitizesNonPrometheusNames) {
  Registry r;
  r.GetCounter("9bad name-with.dots")->Add(1);
  const std::string prom = obs::ToPrometheusText(r);
  EXPECT_NE(prom.find("_9bad_name_with_dots 1"), std::string::npos) << prom;
}

// --- EvalStats::ToString (format pin) -------------------------------------

TEST(EvalStatsTest, ToStringRendersEveryField) {
  EvalStats s;
  s.cells_allocated = 1;
  s.cells_live = 2;
  s.cells_peak = 3;
  s.contexts_evaluated = 4;
  s.axis_evals = 5;
  s.indexed_steps = 6;
  s.nodes_visited = 7;
  s.arena_bytes_peak = 8;
  s.count_fast_path = 9;
  s.pruned_by_summary = 10;
  s.budget_trips = 11;
  EXPECT_EQ(s.ToString(),
            "cells_allocated=1 cells_live=2 cells_peak=3 "
            "contexts_evaluated=4 axis_evals=5 indexed_steps=6 "
            "nodes_visited=7 arena_bytes_peak=8 count_fast_path=9 "
            "pruned_by_summary=10 budget_trips=11");
}

// --- profiler -------------------------------------------------------------

TEST(QueryProfileTest, RecordStepAggregatesByAstId) {
  obs::QueryProfile p;
  p.RecordStep(3, 100, 10, 5, 15, /*indexed=*/true);
  p.RecordStep(3, 50, 5, 2, 7, /*indexed=*/false);
  p.RecordStep(7, 10, 1, 1, 2, /*indexed=*/true);
  ASSERT_EQ(p.steps().size(), 2u);
  const obs::QueryProfile::Step& s = p.steps()[0];
  EXPECT_EQ(s.ast_id, 3u);
  EXPECT_EQ(s.calls, 2u);
  EXPECT_EQ(s.wall_ns, 150u);
  EXPECT_EQ(s.frontier, 15u);
  EXPECT_EQ(s.produced, 7u);
  EXPECT_EQ(s.nodes_visited, 22u);
  EXPECT_EQ(s.indexed_calls, 1u);
  EXPECT_EQ(s.scanned_calls, 1u);
  EXPECT_EQ(p.nodes_visited_total(), 24u);
  p.RecordPhase("eval", 1000);
  EXPECT_NE(p.ToString().find("eval"), std::string::npos);
  p.Clear();
  EXPECT_TRUE(p.steps().empty());
  EXPECT_TRUE(p.phases().empty());
}

struct ProfiledRun {
  std::string repr;     // Value::Repr of the result (engine-independent)
  std::string stats;    // EvalStats::ToString (all counters)
  uint64_t visited_rows = 0;  // profiler row sum (profiled runs only)
  uint64_t visited_stats = 0;
};

ProfiledRun RunOnce(const xpath::CompiledQuery& q, const xml::Document& doc,
                    EvalOptions options, bool profiled) {
  EvalStats stats;
  options.stats = &stats;
  obs::QueryProfile profile;
  if (profiled) options.profile = &profile;
  StatusOr<Value> v = Evaluate(q, doc, EvalContext{}, options);
  EXPECT_TRUE(v.ok()) << q.source() << ": " << v.status().ToString();
  ProfiledRun run;
  run.repr = v.ok() ? v->Repr() : "<error>";
  run.stats = stats.ToString();
  run.visited_rows = profile.nodes_visited_total();
  run.visited_stats = stats.nodes_visited;
  return run;
}

// Attaching a profiler sink must be invisible to everything else: same
// result, same EvalStats, across every engine × index mode × result
// mode. This is the contract that makes Profile() trustworthy — what it
// reports is what the unprofiled run did.
TEST(ProfilerDifferentialTest, ProfilingChangesNoResultAndNoStats) {
  // Small enough for the |dom|³ bottom-up engine, shaped so every
  // fragment path triggers (steps, predicates, a bottom-up boolean()).
  const xml::Document doc = test::MustParse(R"(<site>
    <people><p id="a"><n>alice</n></p><p id="b"><n>bob</n></p></people>
    <items><i id="x1"><w>3</w></i><i id="x2"><w>5</w></i>
           <i id="x3"><w>3</w></i></items>
    <extra><i id="x4"/><p id="c"/></extra>
  </site>)");
  const std::vector<std::string> queries = {
      "//i",
      "//i[w = 3]",
      "/site/items/i[position() = last()]",
      "//p[n]",
      "count(//i[w])",
  };
  for (const std::string& text : queries) {
    const xpath::CompiledQuery q = test::MustCompile(text);
    for (EngineKind engine : AllEngines()) {
      if (!test::EngineRuns(engine, q)) continue;
      for (const test::IndexConfig& index : test::kIndexOffOn) {
        for (const test::ModeConfig& mode : test::kModeConfigs) {
          if (mode.mode != ResultMode::kFull &&
              q.result_type() != xpath::ValueType::kNodeSet) {
            continue;
          }
          const test::Cell cell = test::MakeCell(text, engine, index, mode);
          const ProfiledRun off =
              RunOnce(q, doc, cell.options, /*profiled=*/false);
          const ProfiledRun on =
              RunOnce(q, doc, cell.options, /*profiled=*/true);
          EXPECT_EQ(off.repr, on.repr) << cell.label;
          EXPECT_EQ(off.stats, on.stats) << cell.label;
          // The acceptance invariant: profiler rows account for every
          // node the stats counter saw, exactly.
          EXPECT_EQ(on.visited_rows, on.visited_stats) << cell.label;
        }
      }
    }
  }
}

TEST(QueryProfileTest, ProfileJoinsPlanAndRuntime) {
  xml::Document doc =
      xml::MakeRandomDocument(2000, {"x", "a", "b", "c"}, /*seed=*/99);
  StatusOr<Query> q = Query::Compile("//x");
  ASSERT_TRUE(q.ok());
  StatusOr<obs::ProfileReport> report = q->Profile(doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The optimizer fused //x into one descendant::x step; its row must
  // account for exactly the nodes the stats counter saw.
  EXPECT_FALSE(report->data.steps().empty());
  EXPECT_EQ(report->data.nodes_visited_total(), report->stats.nodes_visited);
  EXPECT_GT(report->stats.nodes_visited, 0u);
  // Phases: the compile pipeline's spans plus the dispatcher's eval span.
  std::vector<std::string> phase_names;
  for (const obs::QueryProfile::Phase& p : report->data.phases()) {
    phase_names.push_back(p.name);
  }
  EXPECT_EQ(phase_names, (std::vector<std::string>{
                             "parse", "normalize", "optimize", "analyze",
                             "eval"}));
  // The joined text carries the static plan report and the runtime rows.
  EXPECT_NE(report->text.find("runtime profile"), std::string::npos);
  EXPECT_NE(report->text.find("descendant::x"), std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("nodes_visited="), std::string::npos);
  // A second Profile() call is independent (fresh report).
  StatusOr<obs::ProfileReport> again = q->Profile(doc);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.nodes_visited, report->stats.nodes_visited);
}

TEST(QueryProfileTest, MultiStepPlanGetsOneRowPerStep) {
  const xml::Document doc = test::MustParse(
      "<r><a><x/><y/></a><b><x/></b><a><x/><x/></a></r>");
  StatusOr<Query> q = Query::Compile("//a/x");
  ASSERT_TRUE(q.ok());
  StatusOr<obs::ProfileReport> report = q->Profile(doc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->data.steps().size(), 2u) << report->text;
  EXPECT_EQ(report->data.nodes_visited_total(), report->stats.nodes_visited);
}

// --- batch fail-loudly + aggregation --------------------------------------

TEST(BatchObsDeathTest, SharedStatsSinkAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EvalStats stats;
  batch::BatchOptions options;
  options.workers = 1;
  options.eval.stats = &stats;
  EXPECT_DEATH(batch::BatchEvaluator pool(options), "data race");
}

TEST(BatchObsDeathTest, SharedProfileSinkAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  obs::QueryProfile profile;
  batch::BatchOptions options;
  options.workers = 1;
  options.eval.profile = &profile;
  EXPECT_DEATH(batch::BatchEvaluator pool(options), "data race");
}

TEST(BatchObsTest, BatchStatsMergeNodesVisited) {
  const xml::Document doc = test::MustParse("<r><a/><a/><b/></r>");
  batch::BatchOptions options;
  options.workers = 2;
  obs::Registry r;
  options.registry = &r;
  batch::BatchEvaluator pool(options);
  std::vector<batch::BatchItem> items = {
      {"//a", &doc, {}, {}},
      {"//b", &doc, {}, {}},
  };
  const std::vector<batch::BatchResult> results = pool.EvaluateAll(items);
  ASSERT_TRUE(results[0].value.ok());
  ASSERT_TRUE(results[1].value.ok());
  const batch::BatchStats stats = pool.last_batch_stats();
  EXPECT_EQ(stats.items, 2u);
  // The regression this pins: MergeEvalStats used to drop nodes_visited,
  // so batch-level stats silently reported 0 forever.
  EXPECT_GT(stats.eval.nodes_visited, 0u);
}

}  // namespace
}  // namespace xpe
