// Differential testing: random documents × a query corpus, all engines
// must agree bit-for-bit with the naive evaluator (the executable
// specification). This is the property-style complement to the golden
// conformance suite.

#include <gtest/gtest.h>

#include "src/batch/plan_cache.h"
#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::Cell;
using test::EngineRuns;
using test::IndexConfig;
using test::kIndexConfigs;
using test::MakeCell;
using test::MustCompile;

/// Query corpus: every axis, positions, values, ids, unions, filters,
/// nested paths — compiled once, reused across documents.
const char* kQueryCorpus[] = {
    "//a",
    "//a/b",
    "//a//b",
    "/descendant::*",
    "//b[1]",
    "//b[last()]",
    "//a[position() = 2]",
    "//a[position() mod 2 = 0]",
    "//*[. = 100]",
    "//a[b]",
    "//a[not(b)]",
    "//a[b and c]",
    "//a[b or c]",
    "//a[.//c]",
    "//b/parent::a",
    "//b/ancestor::*",
    "//b/ancestor-or-self::a",
    "//c/following-sibling::*",
    "//c/preceding-sibling::*",
    "//b/following::c",
    "//b/preceding::c",
    "//a/descendant-or-self::c",
    "//*[@id]",
    "//*[@id = 'n10']",
    "//a[count(b) > 1]",
    "//a[count(.//c) = 0]",
    "//*[self::a = 100]",
    "//a[b = 100]",
    "//a[b = c]",
    "//*[sum(b) > 50]",
    "(//b)[2]",
    "(//a | //b)[3]",
    "//a | //c",
    "//a[string-length(.) > 4]",
    "//a[contains(., '1')]",
    "//*[starts-with(name(), 'b')]",
    "//a[position() = last()]/b",
    "//b[position() != last()]",
    "//a[boolean(b[2]/following-sibling::c)]",
    "//c[preceding-sibling::*/preceding::* = 100]",
    "//a[number(.) = 100]",
    "count(//a)",
    "count(//a[b])",
    "sum(//b) + count(//c)",
    "string(//a)",
    "boolean(//a[4])",
    "//a = //b",
    "//a[. = ../b]",
    "//*[text()]",
    "//b[../c]",
    "//a[100 > b]",
    "//a[b >= '50']",
    "//a[/descendant::c = b]",
    "//a[/descendant::c < b]",
    // Bottom-up comparisons seeded from their last step's node test: kind
    // tests (a scan even with the index on) and tests that drop text
    // nodes or attributes passing the comparison.
    "//a[text() = 100]",
    "//a[node() = 100]",
    "//a[* = 100]",
    "//a[b/text() >= 50]",
    "//a[/descendant::b = 100]",
    "//*[@id != 'n10']",
};

/// Every table engine (and Core XPath on its fragment) agrees with the
/// naive engine on `query` under all three index configs — indexed step
/// kernels and the tier backing them must be invisible in the results —
/// the two indexed tiers also agree on every stats counter, and the
/// profiler's step rows account for exactly the nodes_visited the stats
/// report.
void ExpectAgreesWithNaive(const xml::Document& doc, const char* query,
                           uint64_t seed) {
  xpath::CompiledQuery compiled = MustCompile(query);
  EvalOptions naive_opts;
  naive_opts.engine = EngineKind::kNaive;
  naive_opts.budget = 50'000'000;
  StatusOr<Value> expected = Evaluate(compiled, doc, EvalContext{}, naive_opts);
  ASSERT_TRUE(expected.ok()) << query << ": " << expected.status().ToString();

  for (EngineKind engine : AllEngines()) {
    if (engine == EngineKind::kNaive || !EngineRuns(engine, compiled)) {
      continue;
    }
    std::string hot_stats, dense_stats;
    for (const IndexConfig& config : kIndexConfigs) {
      Cell cell = MakeCell(query, engine, config);
      EvalStats stats;
      obs::QueryProfile profile;
      cell.options.stats = &stats;
      cell.options.profile = &profile;
      StatusOr<Value> actual =
          Evaluate(compiled, doc, EvalContext{}, cell.options);
      ASSERT_TRUE(actual.ok())
          << cell.label << ": " << actual.status().ToString();
      EXPECT_TRUE(actual->StructurallyEquals(*expected))
          << cell.label << " seed " << seed
          << "\nexpected: " << expected->Repr()
          << "\nactual:   " << actual->Repr();
      EXPECT_EQ(profile.nodes_visited_total(), stats.nodes_visited)
          << cell.label << " seed " << seed;
      if (config.use_index) {
        (config.tier == index::IndexTier::kHot ? hot_stats : dense_stats) =
            stats.ToString();
      }
    }
    EXPECT_EQ(hot_stats, dense_stats)
        << "stats diverged across tiers: " << query << " on "
        << EngineKindToString(engine) << " seed " << seed;
  }
}

class DifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllEnginesAgreeWithNaive) {
  xml::Document doc =
      xml::MakeRandomDocument(30, {"a", "b", "c"}, GetParam());
  for (const char* query : kQueryCorpus) {
    ExpectAgreesWithNaive(doc, query, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         testing::Range<uint64_t>(1, 21));

/// Positional selectors on every tree axis, in each place MINCONTEXT
/// evaluates a step: an outermost step, an inner step relation under a
/// boolean predicate, and one under count(). The selectors cover the
/// closed-form shapes ([k] and [last()], alone and stacked) and a
/// positional predicate that still runs the ⟨cp,cs⟩ loop.
std::vector<std::string> SelectorCorpus() {
  const char* kSelectors[] = {
      "[1]",
      "[2]",
      "[7]",
      "[last()]",
      "[position() = last()]",
      "[last()][1]",
      "[position() > last() div 2]",
  };
  std::vector<std::string> corpus;
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    if (axis == Axis::kId) continue;
    const std::string step = std::string(AxisToString(axis)) + "::*";
    for (const char* p : kSelectors) {
      corpus.push_back("//*/" + step + p);
      corpus.push_back("//*[" + step + p + "]");
      corpus.push_back("//b[count(" + step + p + ") = 1]");
    }
  }
  return corpus;
}

class SelectorDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SelectorDifferentialTest, AllEnginesAgreeWithNaive) {
  xml::Document doc =
      xml::MakeRandomDocument(20, {"a", "b", "c"}, GetParam() * 101);
  for (const std::string& query : SelectorCorpus()) {
    ExpectAgreesWithNaive(doc, query.c_str(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorDifferentialTest,
                         testing::Values<uint64_t>(1, 2, 3));

/// The same corpus evaluated from non-root context nodes.
class RelativeDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RelativeDifferentialTest, AgreeFromEveryContextNode) {
  xml::Document doc =
      xml::MakeRandomDocument(15, {"a", "b", "c"}, GetParam() * 977);
  const char* queries[] = {
      "b", "b/c", ".//c", "..", "../b", "following::b[1]",
      "preceding-sibling::*", "b[. = ../c]", "self::a | b",
      "count(ancestor::*)",
  };
  for (const char* query : queries) {
    xpath::CompiledQuery compiled = MustCompile(query);
    for (xml::NodeId cn = 0; cn < doc.size(); cn += 3) {
      if (doc.IsAttribute(cn)) continue;
      EvalContext ctx;
      ctx.node = cn;
      EvalOptions naive_opts;
      naive_opts.engine = EngineKind::kNaive;
      StatusOr<Value> expected = Evaluate(compiled, doc, ctx, naive_opts);
      ASSERT_TRUE(expected.ok());
      for (EngineKind engine :
           {EngineKind::kTopDown, EngineKind::kMinContext,
            EngineKind::kOptMinContext, EngineKind::kBottomUp}) {
        for (const IndexConfig& config : kIndexConfigs) {
          const Cell cell = MakeCell(query, engine, config);
          StatusOr<Value> actual = Evaluate(compiled, doc, ctx, cell.options);
          ASSERT_TRUE(actual.ok()) << cell.label;
          EXPECT_TRUE(actual->StructurallyEquals(*expected))
              << cell.label << " cn=" << cn << "\nexpected "
              << expected->Repr() << "\nactual " << actual->Repr();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelativeDifferentialTest,
                         testing::Range<uint64_t>(1, 9));

/// Growing documents: engines stay in agreement as |D| scales, and the
/// grown paper document preserves the running example's per-copy result.
TEST(ScalingAgreementTest, GrownPaperDocument) {
  for (int width : {1, 2, 5}) {
    xml::Document doc = xml::MakeGrownPaperDocument(width);
    xpath::CompiledQuery q = MustCompile(
        "//b/descendant::*[position() > last()*0.5 or self::* = 100]");
    StatusOr<Value> naive = Evaluate(
        q, doc, EvalContext{},
        EvalOptions{.engine = EngineKind::kNaive, .budget = 100'000'000});
    ASSERT_TRUE(naive.ok());
    for (EngineKind engine : {EngineKind::kTopDown, EngineKind::kMinContext,
                              EngineKind::kOptMinContext}) {
      StatusOr<Value> v =
          Evaluate(q, doc, EvalContext{}, EvalOptions{.engine = engine});
      ASSERT_TRUE(v.ok());
      EXPECT_TRUE(v->StructurallyEquals(*naive))
          << width << " " << EngineKindToString(engine);
    }
    // Per copy: each <b> contributes its second-half/=100 descendants.
    EXPECT_EQ(naive->node_set().size(), 4u * width);
  }
}

/// Join-heavy queries on the XMark-flavoured auction corpus, across
/// engines (the id()-based joins stress deref_ids and the id-axis).
class AuctionDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(AuctionDifferentialTest, EnginesAgreeOnJoins) {
  xml::Document doc = xml::MakeAuctionDocument(8, GetParam());
  const char* queries[] = {
      "count(//person)",
      "count(//open_auction)",
      "//person[creditcard]/name",
      "id(//itemref)/name",
      "id(//bidder/personref)/city",
      "//open_auction[count(bidder) > 2]",
      "//open_auction[current > 100]/itemref",
      "//item[reserve < 50]/name",
      "//open_auction[bidder[last()]/increase = current]",
      "//person[. = id(//personref)]",
      "sum(//current) > sum(//reserve)",
      "//open_auction[id(itemref)/reserve < current]",
  };
  for (const char* query : queries) {
    xpath::CompiledQuery compiled = MustCompile(query);
    EvalOptions naive_opts;
    naive_opts.engine = EngineKind::kNaive;
    naive_opts.budget = 50'000'000;
    StatusOr<Value> expected =
        Evaluate(compiled, doc, EvalContext{}, naive_opts);
    ASSERT_TRUE(expected.ok()) << query;
    for (EngineKind engine : {EngineKind::kTopDown, EngineKind::kMinContext,
                              EngineKind::kOptMinContext,
                              EngineKind::kBottomUp}) {
      for (const IndexConfig& config : kIndexConfigs) {
        const Cell cell = MakeCell(query, engine, config);
        StatusOr<Value> actual =
            Evaluate(compiled, doc, EvalContext{}, cell.options);
        ASSERT_TRUE(actual.ok()) << cell.label;
        EXPECT_TRUE(actual->StructurallyEquals(*expected))
            << cell.label << " seed " << GetParam() << "\nexpected "
            << expected->Repr() << "\nactual " << actual->Repr();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuctionDifferentialTest,
                         testing::Values(1, 7, 42, 1234));

/// The whole corpus once more, but through ONE reused Evaluator session
/// per engine: pooled arenas and flat tables must be invisible in the
/// results even when a session carries state across the full query mix
/// and several documents (the flat-table vs. seed-semantics differential
/// of the session refactor).
class SessionDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SessionDifferentialTest, ReusedSessionAgreesWithNaive) {
  xml::Document doc_a =
      xml::MakeRandomDocument(30, {"a", "b", "c"}, GetParam());
  xml::Document doc_b =
      xml::MakeRandomDocument(24, {"a", "b", "c"}, GetParam() + 5000);
  for (EngineKind engine : {EngineKind::kTopDown, EngineKind::kMinContext,
                            EngineKind::kOptMinContext,
                            EngineKind::kBottomUp}) {
    Evaluator session;
    for (const xml::Document* doc : {&doc_a, &doc_b}) {
      for (const char* query : kQueryCorpus) {
        xpath::CompiledQuery compiled = MustCompile(query);
        EvalOptions naive_opts;
        naive_opts.engine = EngineKind::kNaive;
        naive_opts.budget = 50'000'000;
        StatusOr<Value> expected =
            Evaluate(compiled, *doc, EvalContext{}, naive_opts);
        ASSERT_TRUE(expected.ok()) << query;
        EvalOptions opts;
        opts.engine = engine;
        StatusOr<Value> actual =
            session.Evaluate(compiled, *doc, EvalContext{}, opts);
        ASSERT_TRUE(actual.ok())
            << query << " on session " << EngineKindToString(engine) << ": "
            << actual.status().ToString();
        EXPECT_TRUE(actual->StructurallyEquals(*expected))
            << "query:   " << query << "\nengine:  "
            << EngineKindToString(engine) << " (reused session)"
            << "\nseed:    " << GetParam()
            << "\nexpected " << expected->Repr() << "\nactual "
            << actual->Repr();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionDifferentialTest,
                         testing::Values<uint64_t>(3, 11));

/// Cached-plan mode: the whole corpus replayed with plans served by one
/// shared PlanCache instead of fresh compiles. Same normalized key ⇒
/// the cached (and canonically deduplicated) plan must produce results
/// bit-for-bit identical to a fresh compile, on every engine — the
/// correctness contract that lets a server cache plans at all.
class CachedPlanDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CachedPlanDifferentialTest, CachedPlanMatchesFreshCompile) {
  xml::Document doc =
      xml::MakeRandomDocument(30, {"a", "b", "c"}, GetParam() * 31);
  // Tight capacity on the second pass: every query is compiled fresh,
  // served hot, evicted, and recompiled — eviction must be invisible too.
  for (size_t capacity : {size_t{1024}, size_t{3}}) {
    batch::PlanCache cache(capacity);
    // Two passes: pass 0 populates (all misses at large capacity), pass
    // 1 replays (all hits at large capacity, churn at capacity 3).
    for (int pass = 0; pass < 2; ++pass) {
      for (const char* query : kQueryCorpus) {
        StatusOr<batch::SharedPlan> cached = cache.GetOrCompile(query);
        ASSERT_TRUE(cached.ok()) << query << ": "
                                 << cached.status().ToString();
        xpath::CompiledQuery fresh = MustCompile(query);
        EXPECT_EQ((*cached)->canonical_key(), fresh.canonical_key()) << query;
        for (EngineKind engine :
             {EngineKind::kBottomUp, EngineKind::kTopDown,
              EngineKind::kMinContext, EngineKind::kOptMinContext}) {
          EvalOptions opts;
          opts.engine = engine;
          StatusOr<Value> expected = Evaluate(fresh, doc, EvalContext{}, opts);
          StatusOr<Value> actual = Evaluate(**cached, doc, EvalContext{}, opts);
          ASSERT_TRUE(expected.ok()) << query;
          ASSERT_TRUE(actual.ok()) << query;
          EXPECT_TRUE(actual->StructurallyEquals(*expected))
              << "query:    " << query << "\nengine:   "
              << EngineKindToString(engine) << "\ncapacity: " << capacity
              << " pass " << pass << "\nexpected: " << expected->Repr()
              << "\nactual:   " << actual->Repr();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedPlanDifferentialTest,
                         testing::Values<uint64_t>(2, 9));

}  // namespace
}  // namespace xpe
