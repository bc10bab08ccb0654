// The xpe::Query facade and the early-terminating result modes.
//
// Three layers of coverage:
//  - facade semantics: every typed verb against hand-checked documents,
//    fluent options, value-semantic copies, the PlanCache bridge;
//  - the modes differential: First/Exists/Count/Limit must agree with
//    post-hoc reductions of the full result for every engine × index
//    on/off — the engines are allowed to short-circuit, never to answer
//    differently;
//  - the short-circuit proof: EvalStats::nodes_visited shows Exists()/
//    First() on Core XPath queries stopping after the first match where
//    full materialization walks the document (the acceptance criterion
//    no wall-clock measurement can pin down).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;
using test::MustParse;

const char kDoc[] =
    "<lib><book year='1999'><title>a</title></book>"
    "<book year='2004'><title>b</title></book>"
    "<book year='2011'><title>c</title></book>"
    "<dvd year='2011'/></lib>";

Query MustCompileQuery(std::string_view text) {
  StatusOr<Query> q = Query::Compile(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  if (!q.ok()) std::abort();
  return std::move(q).value();
}

TEST(QueryTest, CompileErrorSurfaces) {
  StatusOr<Query> q = Query::Compile("//a[");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
}

TEST(QueryTest, TypedVerbsAgainstHandCheckedDocument) {
  xml::Document doc = MustParse(kDoc);
  Query books = MustCompileQuery("//book");

  ASSERT_TRUE(books.Nodes(doc).ok());
  const NodeSet all = *books.Nodes(doc);
  EXPECT_EQ(all.size(), 3u);

  EXPECT_EQ(*books.Count(doc), 3u);
  EXPECT_TRUE(*books.Exists(doc));
  ASSERT_TRUE(books.First(doc)->has_value());
  EXPECT_EQ(**books.First(doc), all.First());
  EXPECT_EQ(*books.Limit(doc, 2),
            NodeSet::FromSorted(
                std::span<const xml::NodeId>(all.ids()).first(2)));
  EXPECT_EQ(*books.StringOf(doc), "a");

  Query none = MustCompileQuery("//magazine");
  EXPECT_FALSE(*none.Exists(doc));
  EXPECT_EQ(*none.Count(doc), 0u);
  EXPECT_FALSE(none.First(doc)->has_value());
  EXPECT_EQ(*none.StringOf(doc), "");
  EXPECT_TRUE(none.Limit(doc, 5)->empty());
  EXPECT_EQ(none.Limit(doc, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryTest, EvalReturnsScalarValues) {
  xml::Document doc = MustParse(kDoc);
  Query q = MustCompileQuery("count(//book) + 1");
  ASSERT_TRUE(q.Eval(doc).ok());
  EXPECT_EQ(q.Eval(doc)->number(), 4.0);
  EXPECT_EQ(*q.StringOf(doc), "4");
}

TEST(QueryTest, ModesRejectNonNodeSetQueries) {
  xml::Document doc = MustParse(kDoc);
  Query q = MustCompileQuery("count(//book)");
  EXPECT_EQ(q.Exists(doc).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(q.Count(doc).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(q.First(doc).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(q.Nodes(doc).status().code(), StatusCode::kInvalidArgument);
  // StringOf and Eval are defined for every result type.
  EXPECT_EQ(*q.StringOf(doc), "3");
}

TEST(QueryTest, ForEachStreamsInDocumentOrderAndStopsOnFalse) {
  xml::Document doc = MustParse(kDoc);
  Query books = MustCompileQuery("//book");
  const NodeSet all = *books.Nodes(doc);

  std::vector<xml::NodeId> seen;
  ASSERT_TRUE(books
                  .ForEach(doc,
                           [&](xml::NodeId n) {
                             seen.push_back(n);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(seen, all.ids());

  seen.clear();
  ASSERT_TRUE(books
                  .ForEach(doc,
                           [&](xml::NodeId n) {
                             seen.push_back(n);
                             return seen.size() < 2;
                           })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);

  EXPECT_EQ(books.ForEach(doc, nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, FluentOptionsSelectEngineAndStats) {
  xml::Document doc = MustParse(kDoc);
  Query q = MustCompileQuery("//book[@year > 2000]");
  const NodeSet expected = *q.Nodes(doc);
  for (EngineKind engine : AllEngines()) {
    if (engine == EngineKind::kCoreXPath) continue;  // not Core XPath
    EvalStats stats;
    q.With(engine).WithStats(&stats);
    EXPECT_EQ(*q.Nodes(doc), expected) << EngineKindToString(engine);
    EXPECT_EQ(*q.Count(doc), expected.size()) << EngineKindToString(engine);
    q.WithStats(nullptr);  // the sink must not outlive this iteration
  }
  // Asking the Core XPath engine for a non-core query is an error the
  // facade passes through.
  EXPECT_FALSE(q.With(EngineKind::kCoreXPath).Nodes(doc).ok());
}

TEST(QueryTest, CopiesShareThePlanButNotTheSession) {
  xml::Document doc = MustParse(kDoc);
  Query a = MustCompileQuery("//book");
  Query b = a;
  EXPECT_EQ(&a.plan(), &b.plan());
  b.With(EngineKind::kMinContext);
  EXPECT_EQ(*a.Count(doc), 3u);
  EXPECT_EQ(*b.Count(doc), 3u);
  Query c = MustCompileQuery("//dvd");
  c = a;
  EXPECT_EQ(&c.plan(), &a.plan());
  EXPECT_EQ(*c.Count(doc), 3u);
}

TEST(QueryTest, ExplainAndIntrospection) {
  Query q = MustCompileQuery("//book");
  EXPECT_EQ(q.source(), "//book");
  EXPECT_EQ(q.result_type(), xpath::ValueType::kNodeSet);
  EXPECT_NE(q.Explain().find("CoreXPath"), std::string::npos);
}

TEST(QueryTest, PlanCacheBridgeSharesPlans) {
  xml::Document doc = MustParse(kDoc);
  batch::PlanCache cache(8);
  bool hit = false;
  StatusOr<Query> q1 = cache.GetOrCompileQuery("//book", &hit);
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(hit);
  StatusOr<Query> q2 = cache.GetOrCompileQuery("//book", &hit);
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(&q1->plan(), &q2->plan());
  EXPECT_EQ(*q1->Count(doc), 3u);
  EXPECT_TRUE(*q2->Exists(doc));
}

// --- satellite: Value's typed accessors CHECK-fail with type names ---------

#if GTEST_HAS_DEATH_TEST
TEST(ValueTypeCheckDeathTest, AccessorNamesActualAndRequestedType) {
  EXPECT_DEATH(Value::Number(1.0).node_set(),
               "node_set\\(\\) called on a number Value");
  EXPECT_DEATH(Value::Nodes(NodeSet()).boolean(),
               "boolean\\(\\) called on a node-set Value");
  EXPECT_DEATH(Value::Boolean(true).string(),
               "string\\(\\) called on a boolean Value");
  EXPECT_DEATH(Value::String("x").number(),
               "number\\(\\) called on a string Value");
}
#endif

// --- satellite: EvalOptions::budget is enforced by kCoreXPath --------------

TEST(CoreXPathBudgetTest, TinyBudgetIsExhausted) {
  xml::Document doc = xml::MakeRandomDocument(200, {"a", "b"}, /*seed=*/7);
  for (EngineKind engine :
       {EngineKind::kCoreXPath, EngineKind::kOptMinContext}) {
    EvalOptions options;
    options.engine = engine;
    options.budget = 3;  // //a/b charges the whole-document frontier
    StatusOr<Value> v =
        Evaluate(MustCompile("//a/b"), doc, EvalContext{}, options);
    ASSERT_FALSE(v.ok()) << EngineKindToString(engine);
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted)
        << EngineKindToString(engine);
  }
}

TEST(CoreXPathBudgetTest, AdequateBudgetSucceedsAndCharges) {
  xml::Document doc = xml::MakeRandomDocument(200, {"a", "b"}, /*seed=*/7);
  EvalStats stats;
  EvalOptions options;
  options.engine = EngineKind::kCoreXPath;
  options.budget = 1'000'000;
  options.stats = &stats;
  ASSERT_TRUE(
      Evaluate(MustCompile("//a[b]"), doc, EvalContext{}, options).ok());
  // The linear engine now reports its work in the budget's unit.
  EXPECT_GT(stats.contexts_evaluated, 0u);
}

// --- the modes differential ------------------------------------------------

/// Node-set query corpus for the mode agreement property: core and
/// non-core shapes, positional predicates, unions, filters, reverse
/// axes, attributes — everything the limit push-down must not break.
const char* kModeCorpus[] = {
    "//a",
    "//b",
    "//a/b",
    "//a//b",
    "//missing",
    "/descendant::*",
    "//a[b]",
    "//a[not(b)]",
    "//a[b and c]",
    "//b[1]",
    "//b[last()]",
    "//a[position() mod 2 = 0]",
    "//b/ancestor::a",
    "//c/preceding-sibling::*",
    "//b/following::c",
    "//*[@id]",
    "(//b)[2]",
    "//a | //c",
    "(//a | //b)[3]",
    "//a[count(b) > 1]/b",
    "//a[.//c]//b",
};

class ModeDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ModeDifferentialTest, ModesAgreeWithFullReductions) {
  xml::Document doc =
      xml::MakeRandomDocument(40, {"a", "b", "c"}, GetParam());
  for (const char* query : kModeCorpus) {
    xpath::CompiledQuery compiled = MustCompile(query);
    for (EngineKind engine : AllEngines()) {
      if (!test::EngineRuns(engine, compiled)) continue;
      for (const test::IndexConfig& index : test::kIndexOffOn) {
        const test::Cell cell = test::MakeCell(query, engine, index);
        const EvalOptions& opts = cell.options;
        const std::string label =
            cell.label + " seed " + std::to_string(GetParam());

        StatusOr<NodeSet> full = EvaluateNodeSet(compiled, doc, {}, opts);
        ASSERT_TRUE(full.ok()) << label << ": " << full.status().ToString();

        auto eval_mode = [&](ResultMode mode, uint64_t limit) {
          EvalOptions mode_opts = opts;
          mode_opts.result.mode = mode;
          mode_opts.result.limit = limit;
          StatusOr<Value> v = Evaluate(compiled, doc, {}, mode_opts);
          EXPECT_TRUE(v.ok()) << label << ": " << v.status().ToString();
          return std::move(v).value();
        };

        EXPECT_EQ(eval_mode(ResultMode::kExists, 0).boolean(), !full->empty())
            << label;
        EXPECT_EQ(eval_mode(ResultMode::kCount, 0).number(),
                  static_cast<double>(full->size()))
            << label;
        const NodeSet first = eval_mode(ResultMode::kFirst, 0).node_set();
        if (full->empty()) {
          EXPECT_TRUE(first.empty()) << label;
        } else {
          ASSERT_EQ(first.size(), 1u) << label;
          EXPECT_EQ(first.First(), full->First()) << label;
        }
        {
          // limit == 0 is rejected (a forgotten ResultSpec::limit), not
          // answered with an empty OK set.
          EvalOptions zero_opts = opts;
          zero_opts.result.mode = ResultMode::kLimit;
          EXPECT_EQ(Evaluate(compiled, doc, {}, zero_opts).status().code(),
                    StatusCode::kInvalidArgument)
              << label;
        }
        for (uint64_t limit : {1u, 2u, 1000u}) {
          const NodeSet prefix =
              eval_mode(ResultMode::kLimit, limit).node_set();
          const size_t want = std::min<size_t>(limit, full->size());
          EXPECT_EQ(prefix,
                    NodeSet::FromSorted(
                        std::span<const xml::NodeId>(full->ids()).first(want)))
              << label << " limit " << limit;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeDifferentialTest,
                         testing::Range<uint64_t>(1, 6));

// --- the short-circuit proof -----------------------------------------------

/// Labels with one "x" needle per 99 fillers: ~1% selectivity.
std::vector<std::string> SparseLabels() {
  std::vector<std::string> labels = {"x"};
  static const char* kFillers[] = {"a", "b", "c", "d", "e"};
  for (int i = 0; i < 99; ++i) labels.push_back(kFillers[i % 5]);
  return labels;
}

TEST(EarlyTerminationTest, ExistsAndFirstStopAfterTheFirstMatch) {
  xml::Document doc =
      xml::MakeRandomDocument(20'000, SparseLabels(), /*seed=*/4242);
  doc.WarmCaches();  // keep the lazy index build out of the counters
  // The compile-time optimizer fuses //x into /descendant::x for every
  // result mode, so the whole-document-scan yardstick the probes are
  // measured against needs the optimizer off.
  xpath::CompileOptions unoptimized;
  unoptimized.optimize = false;
  for (EngineKind engine :
       {EngineKind::kCoreXPath, EngineKind::kOptMinContext}) {
    Query q = MustCompileQuery("//x");
    q.With(engine);
    StatusOr<Query> unopt_or = Query::Compile("//x", unoptimized);
    ASSERT_TRUE(unopt_or.ok());
    Query unopt = std::move(unopt_or).value();
    unopt.With(engine);

    EvalStats unopt_full_stats;
    unopt.WithStats(&unopt_full_stats);
    const NodeSet full = *unopt.Nodes(doc);
    ASSERT_FALSE(full.empty());

    EvalStats full_stats;
    q.WithStats(&full_stats);
    EXPECT_EQ(*q.Nodes(doc), full);

    EvalStats exists_stats;
    q.WithStats(&exists_stats);
    EXPECT_TRUE(*q.Exists(doc));

    EvalStats first_stats;
    q.WithStats(&first_stats);
    EXPECT_EQ(**q.First(doc), full.First());

    // The unoptimized normal form materializes the whole document for
    // the descendant-or-self hop (>= |D| nodes)...
    EXPECT_GE(unopt_full_stats.nodes_visited,
              static_cast<uint64_t>(doc.size()))
        << EngineKindToString(engine);
    // ...the optimized *full* mode now runs the fused plan — strictly
    // fewer visited nodes than the unfused scan, nowhere near |D|
    // (ISSUE 5: the fusion is no longer gated to the limited modes)...
    EXPECT_LT(full_stats.nodes_visited, unopt_full_stats.nodes_visited)
        << EngineKindToString(engine);
    EXPECT_LT(full_stats.nodes_visited, static_cast<uint64_t>(doc.size()) / 10)
        << EngineKindToString(engine);
    // ...and the probe modes terminate after the first match.
    EXPECT_LT(exists_stats.nodes_visited * 100, unopt_full_stats.nodes_visited)
        << EngineKindToString(engine);
    EXPECT_LT(first_stats.nodes_visited * 100, unopt_full_stats.nodes_visited)
        << EngineKindToString(engine);
  }
}

TEST(EarlyTerminationTest, LimitVisitsProportionallyFewerNodes) {
  xml::Document doc =
      xml::MakeRandomDocument(20'000, SparseLabels(), /*seed=*/99);
  doc.WarmCaches();
  Query q = MustCompileQuery("//x");
  q.With(EngineKind::kCoreXPath);

  EvalStats full_stats;
  q.WithStats(&full_stats);
  const NodeSet full = *q.Nodes(doc);
  ASSERT_GT(full.size(), 10u);

  EvalStats limit_stats;
  q.WithStats(&limit_stats);
  const NodeSet prefix = *q.Limit(doc, 5);
  EXPECT_EQ(prefix.size(), 5u);
  EXPECT_LT(limit_stats.nodes_visited * 10, full_stats.nodes_visited);
}

// --- batch items carry per-item result modes -------------------------------

TEST(BatchModesTest, PerItemModesMatchSequentialVerbs) {
  xml::Document doc =
      xml::MakeRandomDocument(500, {"a", "b", "c"}, /*seed=*/3);
  Query nodes = MustCompileQuery("//a/b");
  const NodeSet full = *nodes.Nodes(doc);
  ASSERT_FALSE(full.empty());  // First() below needs a non-empty corpus

  batch::BatchEvaluator evaluator({.workers = 4});
  std::vector<batch::BatchItem> items;
  items.push_back({"//a/b", &doc, {}, {}});
  items.push_back({"//a/b", &doc, {}, {.mode = ResultMode::kExists}});
  items.push_back({"//a/b", &doc, {}, {.mode = ResultMode::kCount}});
  items.push_back({"//a/b", &doc, {}, {.mode = ResultMode::kFirst}});
  items.push_back(
      {"//a/b", &doc, {}, {.mode = ResultMode::kLimit, .limit = 3}});
  std::vector<batch::BatchResult> results = evaluator.EvaluateAll(items);
  ASSERT_EQ(results.size(), 5u);
  for (const batch::BatchResult& r : results) {
    ASSERT_TRUE(r.value.ok()) << r.value.status().ToString();
  }
  EXPECT_EQ(results[0].value->node_set(), full);
  EXPECT_EQ(results[1].value->boolean(), !full.empty());
  EXPECT_EQ(results[2].value->number(), static_cast<double>(full.size()));
  EXPECT_EQ(results[3].value->node_set().First(), full.First());
  EXPECT_EQ(results[4].value->node_set(),
            NodeSet::FromSorted(std::span<const xml::NodeId>(full.ids())
                                    .first(std::min<size_t>(3, full.size()))));
}

}  // namespace
}  // namespace xpe
