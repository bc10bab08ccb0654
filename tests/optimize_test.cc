// The compile-time rewrite pipeline (src/xpath/optimize.h).
//
// Four layers of coverage:
//  - rule unit tests: every rewrite pinned through the canonical
//    rendering of the optimized tree, plus the OptimizeStats counters
//    that make each rewrite observable;
//  - the optimizer differential: optimized and optimize=off plans of
//    one corpus must agree bit-for-bit across all six engines × index
//    on/off × all five result modes — the optimizer may only ever
//    change cost, never answers;
//  - plan-cache canonicalization: `//t` and `/descendant::t` optimize
//    to identical trees, so the PlanCache collapses them onto one
//    cached plan object;
//  - the budget parity regression (ISSUE 5 satellite): a tiny
//    EvalOptions::budget must trip *every* engine — including the
//    OPTMINCONTEXT bottom-up (Wadler) passes, which used to do all
//    their work in the backward-propagation loop without charging.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/batch/plan_cache.h"
#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;
using test::MustParse;

std::string OptimizedKey(std::string_view query) {
  return MustCompile(query).canonical_key();
}

xpath::CompiledQuery CompileUnoptimized(std::string_view query) {
  xpath::CompileOptions options;
  options.optimize = false;
  return MustCompile(query, options);
}

// --- rewrite rules, pinned through the canonical rendering -----------------

TEST(OptimizeRuleTest, DescendantPairFusesForEverySpelling) {
  EXPECT_EQ(OptimizedKey("//t"), "/descendant::t");
  EXPECT_EQ(OptimizedKey("/descendant::t"), "/descendant::t");
  EXPECT_EQ(OptimizedKey(".//t"), "descendant::t");
  EXPECT_EQ(OptimizedKey("//t//u"), "/descendant::t/descendant::u");
  EXPECT_EQ(OptimizedKey("//a/b"), "/descendant::a/child::b");
  EXPECT_EQ(OptimizedKey("/descendant-or-self::node()/descendant::t"),
            "/descendant::t");
  EXPECT_EQ(OptimizedKey(
                "/descendant-or-self::node()/descendant-or-self::node()/t"),
            "/descendant::t");
}

TEST(OptimizeRuleTest, FusionCarriesPositionFreePredicates) {
  EXPECT_EQ(OptimizedKey("//t[u]"), "/descendant::t[boolean(child::u)]");
  // A predicate whose position dependence folds away mid-pass becomes
  // fusable on the next round (the Relev bits are refreshed per pass);
  // the folded false() is then the or's neutral operand and drops too.
  EXPECT_EQ(OptimizedKey("//t[b or position() = 0]"),
            "/descendant::t[boolean(child::b)]");
  // Positional predicates veto the fusion: the hop changes their
  // candidate-list ranks, so the pair must stay.
  EXPECT_EQ(OptimizedKey("//t[1]"),
            "/descendant-or-self::node()/child::t[(position() = 1)]");
  EXPECT_EQ(OptimizedKey("//t[last()]"),
            "/descendant-or-self::node()/child::t[(position() = last())]");
}

TEST(OptimizeRuleTest, FusionDoesNotCrossOtherAxes) {
  EXPECT_EQ(OptimizedKey("//t/parent::u"),
            "/descendant::t/parent::u");
  EXPECT_EQ(OptimizedKey("/descendant-or-self::node()/following::t"),
            "/descendant-or-self::node()/following::t");
  // A predicate on the hop itself blocks the fusion too.
  EXPECT_EQ(OptimizedKey("/descendant-or-self::node()[u]/child::t"),
            "/descendant-or-self::node()[boolean(child::u)]/child::t");
}

TEST(OptimizeRuleTest, RedundantSelfStepsCollapse) {
  EXPECT_EQ(OptimizedKey("./a"), "child::a");
  EXPECT_EQ(OptimizedKey("a/./b"), "child::a/child::b");
  EXPECT_EQ(OptimizedKey("/a/."), "/child::a");
  // The last step standing survives: a path needs at least one.
  EXPECT_EQ(OptimizedKey("."), "self::node()");
  EXPECT_EQ(OptimizedKey("./."), "self::node()");
}

TEST(OptimizeRuleTest, ConstantPredicatesSimplify) {
  EXPECT_EQ(OptimizedKey("a[true()]"), "child::a");
  EXPECT_EQ(OptimizedKey("a['x']"), "child::a");       // boolean('x') = true
  EXPECT_EQ(OptimizedKey("a[2 > 1]"), "child::a");
  EXPECT_EQ(OptimizedKey("a[false()]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a['']"), "child::a[false()]");
  // Everything after a constant-false step is dead code.
  EXPECT_EQ(OptimizedKey("a[false()]/b/c"), "child::a[false()]");
  // A false predicate swallows its siblings: the step selects nothing.
  EXPECT_EQ(OptimizedKey("a[b][false()]"), "child::a[false()]");
}

TEST(OptimizeRuleTest, ImpossiblePositionsTightenToFalse) {
  EXPECT_EQ(OptimizedKey("a[0]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a[1.5]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a[-2]"), "child::a[false()]");
  // Plausible positions stay.
  EXPECT_EQ(OptimizedKey("a[2]"), "child::a[(position() = 2)]");
}

TEST(OptimizeRuleTest, SingleCandidateAxesDropVacuousPositions) {
  // self/parent candidate lists hold at most one node: position() = 1
  // is vacuous there and position() = 2 impossible.
  EXPECT_EQ(OptimizedKey("a/parent::b[1]"), "child::a/parent::b");
  EXPECT_EQ(OptimizedKey("a/parent::b[2]"), "child::a/parent::b[false()]");
  EXPECT_EQ(OptimizedKey("self::a[1]"), "self::a");
  // child knows no such bound.
  EXPECT_EQ(OptimizedKey("a/b[1]"), "child::a/child::b[(position() = 1)]");
}

TEST(OptimizeRuleTest, NamedAttributeStepsDropVacuousPositions) {
  // Attribute names are unique per element, so a *named* attribute step
  // has at most one candidate too.
  EXPECT_EQ(OptimizedKey("a/attribute::b[1]"), "child::a/attribute::b");
  EXPECT_EQ(OptimizedKey("a/@b[1]"), "child::a/attribute::b");
  EXPECT_EQ(OptimizedKey("a/attribute::b[2]"),
            "child::a/attribute::b[false()]");
  // attribute::* can hold many candidates: no tightening.
  EXPECT_EQ(OptimizedKey("a/attribute::*[2]"),
            "child::a/attribute::*[(position() = 2)]");
}

TEST(OptimizeRuleTest, BooleanConstantsFold) {
  EXPECT_EQ(OptimizedKey("true() and false()"), "false()");
  EXPECT_EQ(OptimizedKey("true() or false()"), "true()");
  EXPECT_EQ(OptimizedKey("not(false())"), "true()");
  EXPECT_EQ(OptimizedKey("1 < 2"), "true()");
  EXPECT_EQ(OptimizedKey("'a' = 'b'"), "false()");
  // A deciding constant operand settles and/or without the other side.
  EXPECT_EQ(OptimizedKey("a[b and false()]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a[b or true()]"), "child::a");
}

TEST(OptimizeRuleTest, NeutralOperandsDrop) {
  // The operator's neutral constant decides nothing: the other operand
  // alone is the expression (either operand order).
  EXPECT_EQ(OptimizedKey("a[b and true()]"), "child::a[boolean(child::b)]");
  EXPECT_EQ(OptimizedKey("a[true() and b]"), "child::a[boolean(child::b)]");
  EXPECT_EQ(OptimizedKey("a[b or false()]"), "child::a[boolean(child::b)]");
  EXPECT_EQ(OptimizedKey("a[false() or b]"), "child::a[boolean(child::b)]");
  // The kept operand stays boolean-typed (and/or coerce their operands),
  // so surrounding comparisons keep their boolean = string semantics.
  EXPECT_EQ(OptimizedKey("(b and true()) = 'x'"),
            "(boolean(child::b) = 'x')");

  const xpath::CompiledQuery dropped = MustCompile("a[b and true()]");
  EXPECT_EQ(dropped.optimize_stats().eliminated_neutral_operands, 1u);
  EXPECT_NE(xpath::Explain(dropped).find("neutral_ops_dropped=1"),
            std::string::npos);
}

TEST(OptimizeRuleTest, ConstantArithmeticFolds) {
  // [1 + 1] normalizes to position() = (1 + 1); the folded literal is
  // exactly what the position rules see for a spelled-out [2].
  EXPECT_EQ(OptimizedKey("a[1 + 1]"), OptimizedKey("a[2]"));
  EXPECT_EQ(OptimizedKey("a[1 + 1]"), "child::a[(position() = 2)]");
  EXPECT_EQ(OptimizedKey("a[2 * 3 - 1]"), "child::a[(position() = 5)]");
  EXPECT_EQ(OptimizedKey("a[4 div 2]"), "child::a[(position() = 2)]");
  EXPECT_EQ(OptimizedKey("a[7 mod 3]"), "child::a[(position() = 1)]");
  // ... including feeding the impossible-position and single-candidate
  // tightenings.
  EXPECT_EQ(OptimizedKey("a[1 - 2]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a[3 div 2]"), "child::a[false()]");
  EXPECT_EQ(OptimizedKey("a/parent::b[3 - 1]"), "child::a/parent::b[false()]");
  // Non-constant operands stay put.
  EXPECT_EQ(OptimizedKey("a[count(b) + 1]"),
            "child::a[(position() = (count(child::b) + 1))]");

  const xpath::CompiledQuery folded = MustCompile("a[2 * 3 - 1]");
  EXPECT_EQ(folded.optimize_stats().folded_arithmetic, 2u);
  EXPECT_NE(xpath::Explain(folded).find("arith_folded=2"), std::string::npos);
}

TEST(OptimizeRuleTest, StatsRecordEveryRewrite) {
  const xpath::CompiledQuery fused = MustCompile("//t//u");
  EXPECT_EQ(fused.optimize_stats().fused_descendant_steps, 2u);
  EXPECT_EQ(fused.optimize_stats().total(), 2u);

  const xpath::CompiledQuery mixed = MustCompile("./a[true()]//b[0]");
  EXPECT_EQ(mixed.optimize_stats().removed_self_steps, 1u);
  EXPECT_EQ(mixed.optimize_stats().dropped_true_predicates, 1u);
  EXPECT_GE(mixed.optimize_stats().folded_constants, 1u);
  EXPECT_EQ(mixed.optimize_stats().tightened_position_predicates, 1u);
  // [0] is constant-false, so the fused trailing step keeps it and the
  // fusion still applies (the predicate is position-free once folded).
  EXPECT_EQ(mixed.canonical_key(), "child::a/descendant::b[false()]");

  const xpath::CompiledQuery untouched = CompileUnoptimized("//t");
  EXPECT_EQ(untouched.optimize_stats().total(), 0u);
  EXPECT_EQ(untouched.canonical_key(),
            "/descendant-or-self::node()/child::t");
}

TEST(OptimizeRuleTest, OptimizerIsIdempotentOnItsOwnOutput) {
  for (const char* query :
       {"//t", "//t//u", "//a[x]//x", "./a[true()]//b[0]", "a[false()]/b",
        "//t[b or position() = 0]"}) {
    const std::string once = OptimizedKey(query);
    EXPECT_EQ(OptimizedKey(once), once) << query;
  }
}

TEST(OptimizeRuleTest, ExplainSurfacesTheRewrites) {
  const xpath::CompiledQuery compiled = MustCompile("//t");
  EXPECT_NE(xpath::Explain(compiled).find("optimizer:"), std::string::npos);
  EXPECT_NE(xpath::Explain(compiled).find("fused=1"), std::string::npos);
}

// --- the optimizer differential --------------------------------------------

/// Queries chosen so every rewrite rule fires somewhere, over documents
/// random enough to expose a semantics change: fusions (trailing,
/// leading, chained, predicated), self steps, constant predicates,
/// impossible positions, positional vetoes, unions, filters.
const char* kOptimizerCorpus[] = {
    "//a",
    "//a/b",
    "//a//b",
    "//a[b]//c",
    "//a[1]",
    "//b[last()]",
    ".//b",
    "./a/./b",
    "//a[true()]",
    "//a[false()]",
    "//a[false()]/b",
    "//a[0]",
    "//a[2]",
    "//b/parent::a[1]",
    "//a[b and false()]",
    "//a[b or true()]",
    "//a[b and true()]",
    "//a[b or false()]",
    "//a/b[1 + 1]",
    "//a/b[2 * 2 - 1]",
    "//a[.//c]//b",
    "//a | .//b",
    "(//a//b)[2]",
    "//a[count(.//b) > 1]//c",
};

/// Scalar-typed spellings (compared through the rendered Value).
const char* kScalarCorpus[] = {
    "boolean(//a)",
    "count(//a//b)",
    "string(//a[b]//c)",
    "true() and boolean(//b)",
    "count(//a[false()])",
};

class OptimizerDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerDifferentialTest, OptimizedPlansMatchUnoptimizedPlans) {
  xml::Document doc =
      xml::MakeRandomDocument(60, {"a", "b", "c"}, GetParam());
  // Every result mode, plus a kLimit that keeps a single node.
  std::vector<test::ModeConfig> modes(std::begin(test::kModeConfigs),
                                      std::end(test::kModeConfigs));
  modes.push_back({ResultMode::kLimit, 1});
  for (const char* query : kOptimizerCorpus) {
    const xpath::CompiledQuery optimized = MustCompile(query);
    const xpath::CompiledQuery unoptimized = CompileUnoptimized(query);
    for (EngineKind engine : AllEngines()) {
      // The fragment is per plan; Core XPath must accept both.
      if (!test::EngineRuns(engine, optimized) ||
          !test::EngineRuns(engine, unoptimized)) {
        continue;
      }
      for (const test::IndexConfig& index : test::kIndexOffOn) {
        for (const test::ModeConfig& mode : modes) {
          const test::Cell cell = test::MakeCell(query, engine, index, mode);
          const std::string label = cell.label + " limit " +
                                    std::to_string(mode.limit) + " seed " +
                                    std::to_string(GetParam());
          StatusOr<Value> want = Evaluate(unoptimized, doc, {}, cell.options);
          ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
          StatusOr<Value> got = Evaluate(optimized, doc, {}, cell.options);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          EXPECT_TRUE(got->StructurallyEquals(*want))
              << label << "\nwant " << want->Repr() << "\ngot  "
              << got->Repr();
        }
      }
    }
  }
}

TEST_P(OptimizerDifferentialTest, ScalarQueriesMatchToo) {
  xml::Document doc =
      xml::MakeRandomDocument(60, {"a", "b", "c"}, GetParam());
  for (const char* query : kScalarCorpus) {
    const xpath::CompiledQuery optimized = MustCompile(query);
    const xpath::CompiledQuery unoptimized = CompileUnoptimized(query);
    for (EngineKind engine : test::ConformanceEngines()) {
      for (const test::IndexConfig& index : test::kIndexOffOn) {
        const test::Cell cell = test::MakeCell(query, engine, index);
        StatusOr<Value> want = Evaluate(unoptimized, doc, {}, cell.options);
        StatusOr<Value> got = Evaluate(optimized, doc, {}, cell.options);
        ASSERT_TRUE(want.ok() && got.ok()) << cell.label;
        EXPECT_EQ(got->type(), want->type()) << cell.label;
        EXPECT_EQ(got->ToString(doc), want->ToString(doc)) << cell.label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerDifferentialTest,
                         testing::Range<uint64_t>(1, 4));

// --- plan-cache canonicalization -------------------------------------------

TEST(OptimizePlanCacheTest, EquivalentSpellingsShareOneCachedPlan) {
  batch::PlanCache cache(8);
  batch::SharedPlan abbreviated = *cache.GetOrCompile("//t");
  batch::SharedPlan explicit_descendant = *cache.GetOrCompile("/descendant::t");
  batch::SharedPlan unabbreviated =
      *cache.GetOrCompile("/descendant-or-self::node()/child::t");
  EXPECT_EQ(abbreviated.get(), explicit_descendant.get())
      << "//t and /descendant::t must dedup onto one plan";
  EXPECT_EQ(abbreviated.get(), unabbreviated.get());
  const batch::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u) << "three source aliases";
  EXPECT_EQ(stats.canonical_shares, 2u) << "two spellings adopted plan #1";
}

TEST(OptimizePlanCacheTest, GetOrCompileQueryServesTheSharedPlan) {
  batch::PlanCache cache(8);
  Query spelled = *cache.GetOrCompileQuery("//t");
  Query canonical = *cache.GetOrCompileQuery("/descendant::t");
  EXPECT_EQ(spelled.shared_plan().get(), canonical.shared_plan().get());
  xml::Document doc = MustParse("<r><t/><u><t/></u></r>");
  EXPECT_EQ(*spelled.Count(doc), 2u);
  EXPECT_EQ(*canonical.Count(doc), 2u);
}

// --- budget parity across all engines (ISSUE 5 satellite) ------------------

TEST(BudgetParityTest, TinyBudgetTripsEveryEngine) {
  // Large enough that every engine's cheapest accounted pass exceeds
  // one unit. The per-engine query keeps each engine on its natural
  // path: kCoreXPath takes the linear path evaluator, kOptMinContext
  // the bottom-up (Wadler) backward propagation that used to skip
  // budget accounting entirely, the rest their table-filling loops.
  xml::Document doc =
      xml::MakeRandomDocument(90, {"a", "b"}, /*seed=*/7);
  for (EngineKind engine : AllEngines()) {
    // The fused plan of a bare //a is one step from one frontier node —
    // a single budget unit — so the linear engine gets a two-step path.
    const char* query =
        engine == EngineKind::kCoreXPath ? "//a//b" : "boolean(//a)";
    EvalOptions options;
    options.engine = engine;
    options.budget = 1;
    StatusOr<Value> v =
        Evaluate(MustCompile(query), doc, EvalContext{}, options);
    ASSERT_FALSE(v.ok()) << EngineKindToString(engine)
                         << " ignored EvalOptions::budget";
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted)
        << EngineKindToString(engine);
  }
}

TEST(BudgetParityTest, CountAndLimitModesSurfaceBudgetTripsUniformly) {
  // Regression (ISSUE 9 satellite): kCount used to report budget
  // exhaustion only through the error status while kLimit also left a
  // trace in EvalStats, so stats-parity checks across result modes
  // broke the moment a budget tripped. The dispatcher now records
  // EvalStats::budget_trips centrally — every engine, tier, and result
  // mode identically.
  xml::Document doc = xml::MakeRandomDocument(90, {"a", "b"}, /*seed=*/7);
  for (EngineKind engine : AllEngines()) {
    const char* query =
        engine == EngineKind::kCoreXPath ? "//a//b" : "//a[b]";
    for (index::IndexTier tier :
         {index::IndexTier::kHot, index::IndexTier::kDense}) {
      for (ResultMode mode : {ResultMode::kCount, ResultMode::kLimit}) {
        EvalOptions options;
        options.engine = engine;
        options.index_tier = tier;
        options.budget = 1;
        options.result.mode = mode;
        if (mode == ResultMode::kLimit) options.result.limit = 3;
        EvalStats stats;
        options.stats = &stats;
        StatusOr<Value> v =
            Evaluate(MustCompile(query), doc, EvalContext{}, options);
        const std::string label = std::string(EngineKindToString(engine)) +
                                  "/" + index::IndexTierToString(tier) + "/" +
                                  ResultModeToString(mode);
        ASSERT_FALSE(v.ok()) << label;
        EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted) << label;
        EXPECT_EQ(stats.budget_trips, 1u) << label;
      }
    }
  }
}

TEST(BudgetParityTest, GenerousBudgetPassesEveryEngine) {
  xml::Document doc = xml::MakeRandomDocument(90, {"a", "b"}, /*seed=*/7);
  for (EngineKind engine : AllEngines()) {
    const char* query =
        engine == EngineKind::kCoreXPath ? "//a//b" : "boolean(//a)";
    EvalOptions options;
    options.engine = engine;
    // Roomy even for E↑'s |D|³-row tables on this document.
    options.budget = 1'000'000'000'000;
    EXPECT_TRUE(
        Evaluate(MustCompile(query), doc, EvalContext{}, options).ok())
        << EngineKindToString(engine);
  }
}

}  // namespace
}  // namespace xpe
