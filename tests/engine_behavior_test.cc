// Engine-behaviour tests: the properties that distinguish the engines
// (exponential vs polynomial work, table sizes, budgets, fragment
// dispatch) rather than their common semantics. These are the unit-level
// counterparts of the bench/ experiments.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;

/// Q_n of experiment E1: //a/b[//a/b[...//a/b...]] nested n levels.
std::string NestedQuery(int depth) {
  std::string q = "//a/b";
  for (int i = 0; i < depth; ++i) q = "//a/b[" + q + "]";
  return q;
}

uint64_t NaiveWork(const xml::Document& doc, const std::string& query) {
  EvalStats stats;
  EvalOptions options;
  options.engine = EngineKind::kNaive;
  options.stats = &stats;
  StatusOr<Value> v = Evaluate(MustCompile(query), doc, EvalContext{}, options);
  EXPECT_TRUE(v.ok());
  return stats.contexts_evaluated;
}

TEST(ExponentialBaselineTest, NaiveWorkDoublesPerNestingLevel) {
  // The intro's claim ([11]'s experiment): re-evaluating predicates per
  // context node makes work grow exponentially in |Q| even on the
  // four-node document <a><b/><b/></a>.
  xml::Document doc = xml::MakeExponentialDocument();
  uint64_t w4 = NaiveWork(doc, NestedQuery(4));
  uint64_t w8 = NaiveWork(doc, NestedQuery(8));
  uint64_t w12 = NaiveWork(doc, NestedQuery(12));
  // Each extra level multiplies by |{b,b}| = 2; four levels ≈ 16×.
  EXPECT_GE(w8, w4 * 8);
  EXPECT_GE(w12, w8 * 8);
}

TEST(ExponentialBaselineTest, PolynomialEnginesStayFlat) {
  xml::Document doc = xml::MakeExponentialDocument();
  for (EngineKind engine : {EngineKind::kTopDown, EngineKind::kMinContext,
                            EngineKind::kOptMinContext,
                            EngineKind::kCoreXPath}) {
    EvalStats s8, s16;
    EvalOptions options;
    options.engine = engine;
    options.stats = &s8;
    ASSERT_TRUE(Evaluate(MustCompile(NestedQuery(8)), doc, EvalContext{},
                         options)
                    .ok());
    options.stats = &s16;
    ASSERT_TRUE(Evaluate(MustCompile(NestedQuery(16)), doc, EvalContext{},
                         options)
                    .ok());
    // Work grows at most linearly in |Q| here, far from doubling 8 times.
    const uint64_t work8 = s8.contexts_evaluated + s8.axis_evals;
    const uint64_t work16 = s16.contexts_evaluated + s16.axis_evals;
    EXPECT_LE(work16, work8 * 4 + 64) << EngineKindToString(engine);
  }
}

TEST(ExponentialBaselineTest, NestedQueryIsCoreXPath) {
  // Q_n is Core XPath, so OPTMINCONTEXT dispatches to the linear engine.
  EXPECT_EQ(MustCompile(NestedQuery(6)).fragment(),
            xpath::Fragment::kCoreXPath);
}

TEST(BudgetTest, NaiveRunsOutOfBudget) {
  xml::Document doc = xml::MakeExponentialDocument();
  EvalOptions options;
  options.engine = EngineKind::kNaive;
  options.budget = 1000;
  StatusOr<Value> v =
      Evaluate(MustCompile(NestedQuery(20)), doc, EvalContext{}, options);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, PolynomialEnginesFitTheSameBudget) {
  xml::Document doc = xml::MakeExponentialDocument();
  for (EngineKind engine :
       {EngineKind::kMinContext, EngineKind::kOptMinContext}) {
    EvalOptions options;
    options.engine = engine;
    options.budget = 100'000;
    EXPECT_TRUE(Evaluate(MustCompile(NestedQuery(20)), doc, EvalContext{},
                         options)
                    .ok())
        << EngineKindToString(engine);
  }
}

// --- Space instrumentation (Theorems 7 and 10, unit-scale) --------------------

uint64_t PeakCells(EngineKind engine, const xml::Document& doc,
                   const std::string& query) {
  EvalStats stats;
  EvalOptions options;
  options.engine = engine;
  options.stats = &stats;
  StatusOr<Value> v = Evaluate(MustCompile(query), doc, EvalContext{}, options);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return stats.cells_peak;
}

TEST(SpaceTest, WadlerTablesGrowLinearly) {
  // Example 9's query is Extended Wadler: OPTMINCONTEXT's per-expression
  // tables must grow ~linearly in |D| (Theorem 10). Measure the growth
  // exponent between |D| and 4|D|: for linear growth the ratio is ~4,
  // for quadratic ~16. Accept anything clearly below quadratic.
  const std::string q =
      "/child::r/child::a/descendant::*[boolean(following::d[(position() != "
      "last()) and (preceding-sibling::*/preceding::* = 100)]/"
      "following::d)]";
  xml::Document d1 = xml::MakeGrownPaperDocument(4);
  xml::Document d4 = xml::MakeGrownPaperDocument(16);
  const double ratio =
      static_cast<double>(PeakCells(EngineKind::kOptMinContext, d4, q)) /
      static_cast<double>(PeakCells(EngineKind::kOptMinContext, d1, q));
  EXPECT_LT(ratio, 8.0);  // linear-ish; quadratic would be ≈ 16
}

TEST(SpaceTest, MinContextStaysWithinQuadraticBound) {
  const std::string q =
      "/descendant::*/descendant::*[position() > last()*0.5 or "
      "self::* = 100]";
  for (int width : {2, 4, 8}) {
    xml::Document doc = xml::MakeGrownPaperDocument(width);
    const uint64_t d = doc.size();
    const uint64_t peak = PeakCells(EngineKind::kMinContext, doc, q);
    EXPECT_LE(peak, d * d * 16) << width;  // |Q| table slots, |D|² each
  }
}

TEST(SpaceTest, BottomUpTablesAreCubicallyLarger) {
  // E↑ materializes Θ(|dom|³/2) rows per scalar expression; on the same
  // input its peak must dwarf MINCONTEXT's.
  xml::Document doc = xml::MakeGrownPaperDocument(2);
  const std::string q = "//b[position() = last()]";
  const uint64_t eup = PeakCells(EngineKind::kBottomUp, doc, q);
  const uint64_t mc = PeakCells(EngineKind::kMinContext, doc, q);
  EXPECT_GT(eup, mc * 50);
}

TEST(SpaceTest, BottomUpRefusesHugeDocuments) {
  xml::Document doc = xml::MakeNumericDocument(400);
  EvalOptions options;
  options.engine = EngineKind::kBottomUp;
  StatusOr<Value> v =
      Evaluate(MustCompile("//v"), doc, EvalContext{}, options);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
}

// --- Engine dispatch and argument validation ----------------------------------

TEST(DispatchTest, CoreEngineRejectsNonCoreQueries) {
  xml::Document doc = xml::MakePaperDocument();
  EvalOptions options;
  options.engine = EngineKind::kCoreXPath;
  StatusOr<Value> v = Evaluate(MustCompile("//b[position() = 1]"), doc,
                               EvalContext{}, options);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(DispatchTest, InvalidContextRejected) {
  xml::Document doc = xml::MakePaperDocument();
  xpath::CompiledQuery q = MustCompile("//b");
  EvalContext bad_node;
  bad_node.node = doc.size() + 5;
  EXPECT_FALSE(Evaluate(q, doc, bad_node).ok());
  EvalContext bad_pos;
  bad_pos.position = 5;
  bad_pos.size = 2;
  EXPECT_FALSE(Evaluate(q, doc, bad_pos).ok());
}

TEST(DispatchTest, EvaluateNodeSetRejectsScalars) {
  xml::Document doc = xml::MakePaperDocument();
  StatusOr<NodeSet> r = EvaluateNodeSet(MustCompile("count(//b)"), doc);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DispatchTest, EngineNamesAreStable) {
  EXPECT_STREQ(EngineKindToString(EngineKind::kNaive), "naive");
  EXPECT_STREQ(EngineKindToString(EngineKind::kBottomUp), "bottom-up");
  EXPECT_STREQ(EngineKindToString(EngineKind::kTopDown), "top-down");
  EXPECT_STREQ(EngineKindToString(EngineKind::kMinContext), "mincontext");
  EXPECT_STREQ(EngineKindToString(EngineKind::kOptMinContext),
               "optmincontext");
  EXPECT_STREQ(EngineKindToString(EngineKind::kCoreXPath), "corexpath");
  EXPECT_EQ(AllEngines().size(), static_cast<size_t>(kNumEngines));
}

// --- Counter pins ---------------------------------------------------------

std::string StatsOf(EngineKind engine, const xml::Document& doc,
                    const char* query) {
  EvalStats stats;
  EvalOptions options;
  options.engine = engine;
  options.stats = &stats;
  StatusOr<Value> v = Evaluate(MustCompile(query), doc, EvalContext{}, options);
  EXPECT_TRUE(v.ok()) << query << ": " << v.status().ToString();
  return stats.ToString();
}

struct StatsPin {
  const char* query;
  const char* mincontext;     // EvalStats::ToString() under kMinContext
  const char* optmincontext;  // ... and under kOptMinContext
};

void ExpectPins(const xml::Document& doc, std::span<const StatsPin> pins) {
  for (const StatsPin& pin : pins) {
    EXPECT_EQ(StatsOf(EngineKind::kMinContext, doc, pin.query), pin.mincontext)
        << "kMinContext: " << pin.query;
    EXPECT_EQ(StatsOf(EngineKind::kOptMinContext, doc, pin.query),
              pin.optmincontext)
        << "kOptMinContext: " << pin.query;
  }
}

// One text of each of the benchmark's nine analytics families
// (perfbench/src/analytics.cc), on its reduced twin document. MINCONTEXT's
// per-origin rows and closed-form [k]/[last()] selectors must charge
// exactly what testing every (origin, target) pair and the per-candidate
// ⟨cp,cs⟩ loop of §3.1 charge: every counter, arena bytes included.
// OPTMINCONTEXT's bottom-up comparisons π RelOp s test only the nodes
// passing the node test of π's last step, so their backward pass starts
// from that subset of Y and counts fewer contexts and visited nodes; the
// seed itself is one indexed call of that step, visiting the postings it
// decodes.
TEST(CounterPinTest, AnalyticsFamilies) {
  const xml::Document doc = xml::MakeAuctionDocument(120, 1);
  constexpr StatsPin kPins[] = {
      {"//open_auction[bidder/increase > 50]/current",
       "cells_allocated=513 cells_live=179 cells_peak=196 "
       "contexts_evaluated=206 axis_evals=0 indexed_steps=4 nodes_visited=427 "
       "arena_bytes_peak=95744 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0",
       "cells_allocated=1897 cells_live=1897 cells_peak=1897 "
       "contexts_evaluated=2050 axis_evals=2 indexed_steps=5 "
       "nodes_visited=443 arena_bytes_peak=0 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0"},
      {"//person[city = 'Graz']/name",
       "cells_allocated=601 cells_live=361 cells_peak=361 "
       "contexts_evaluated=267 axis_evals=0 indexed_steps=3 nodes_visited=411 "
       "arena_bytes_peak=66560 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0",
       "cells_allocated=1897 cells_live=1897 cells_peak=1897 "
       "contexts_evaluated=1948 axis_evals=1 indexed_steps=4 "
       "nodes_visited=341 arena_bytes_peak=0 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0"},
      {"id(//open_auction[current > 80]/itemref)/name",
       "cells_allocated=201 cells_live=121 cells_peak=121 "
       "contexts_evaluated=112 axis_evals=1 indexed_steps=4 nodes_visited=181 "
       "arena_bytes_peak=62976 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0",
       "cells_allocated=1897 cells_live=1897 cells_peak=1897 "
       "contexts_evaluated=1938 axis_evals=2 indexed_steps=5 "
       "nodes_visited=161 arena_bytes_peak=0 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0"},
      {"//personref/ancestor::open_auction",
       "cells_allocated=0 cells_live=0 cells_peak=0 contexts_evaluated=99 "
       "axis_evals=0 indexed_steps=2 nodes_visited=237 arena_bytes_peak=0 "
       "count_fast_path=0 pruned_by_summary=0 budget_trips=0",
       "cells_allocated=138 cells_live=138 cells_peak=138 "
       "contexts_evaluated=99 axis_evals=0 indexed_steps=2 nodes_visited=237 "
       "arena_bytes_peak=0 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0"},
      {"//*[@id]",
       "cells_allocated=3437 cells_live=2218 cells_peak=2218 "
       "contexts_evaluated=1999 axis_evals=0 indexed_steps=2 "
       "nodes_visited=2219 arena_bytes_peak=99808 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0",
       "cells_allocated=440 cells_live=440 cells_peak=440 "
       "contexts_evaluated=1897 axis_evals=1 indexed_steps=2 "
       "nodes_visited=3116 arena_bytes_peak=0 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0"},
      {"//open_auction/bidder[last()]/increase",
       "cells_allocated=0 cells_live=0 cells_peak=0 contexts_evaluated=375 "
       "axis_evals=0 indexed_steps=3 nodes_visited=259 arena_bytes_peak=0 "
       "count_fast_path=0 pruned_by_summary=0 budget_trips=0",
       "cells_allocated=0 cells_live=0 cells_peak=0 contexts_evaluated=375 "
       "axis_evals=0 indexed_steps=3 nodes_visited=259 arena_bytes_peak=0 "
       "count_fast_path=0 pruned_by_summary=0 budget_trips=0"},
      {"/site/open_auctions/open_auction[count(bidder) > 2]",
       "cells_allocated=357 cells_live=219 cells_peak=219 "
       "contexts_evaluated=124 axis_evals=0 indexed_steps=4 nodes_visited=183 "
       "arena_bytes_peak=63744 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0",
       "cells_allocated=357 cells_live=219 cells_peak=219 "
       "contexts_evaluated=124 axis_evals=0 indexed_steps=4 nodes_visited=183 "
       "arena_bytes_peak=63744 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0"},
      {"//item[following-sibling::item[1]/reserve > reserve]",
       "cells_allocated=657 cells_live=300 cells_peak=300 "
       "contexts_evaluated=3781 axis_evals=1 indexed_steps=3 "
       "nodes_visited=418 arena_bytes_peak=159040 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0",
       "cells_allocated=657 cells_live=300 cells_peak=300 "
       "contexts_evaluated=3781 axis_evals=1 indexed_steps=3 "
       "nodes_visited=418 arena_bytes_peak=159040 count_fast_path=0 "
       "pruned_by_summary=0 budget_trips=0"},
      {"sum(//current) div count(//open_auction)",
       "cells_allocated=167 cells_live=85 cells_peak=85 contexts_evaluated=5 "
       "axis_evals=0 indexed_steps=2 nodes_visited=82 arena_bytes_peak=122688 "
       "count_fast_path=0 pruned_by_summary=0 budget_trips=0",
       "cells_allocated=167 cells_live=85 cells_peak=85 contexts_evaluated=5 "
       "axis_evals=0 indexed_steps=2 nodes_visited=82 arena_bytes_peak=122688 "
       "count_fast_path=0 pruned_by_summary=0 budget_trips=0"},
  };
  ExpectPins(doc, kPins);
}

// The §2.4 running example on the grown paper document.
TEST(CounterPinTest, RunningExample) {
  const xml::Document doc = xml::MakeGrownPaperDocument(4);
  constexpr StatsPin kPins[] = {
      {"/descendant::*/descendant::*[position() > last()*0.5 or "
       "self::* = 100]",
       "cells_allocated=182 cells_live=110 cells_peak=110 "
       "contexts_evaluated=572 axis_evals=0 indexed_steps=3 nodes_visited=183 "
       "arena_bytes_peak=5312 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0",
       "cells_allocated=100 cells_live=100 cells_peak=100 "
       "contexts_evaluated=606 axis_evals=1 indexed_steps=4 nodes_visited=164 "
       "arena_bytes_peak=0 count_fast_path=0 pruned_by_summary=0 "
       "budget_trips=0"},
  };
  ExpectPins(doc, kPins);
}

// --- Id-step accounting ------------------------------------------------------

/// The id "axis" step §4 rewrites id(π) into (π/id), or kInvalidAstId.
xpath::AstId IdStepOf(const xpath::CompiledQuery& plan) {
  const xpath::QueryTree& tree = plan.tree();
  for (xpath::AstId id = 0; id < tree.size(); ++id) {
    const xpath::AstNode& n = tree.node(id);
    if (n.kind == xpath::ExprKind::kStep && n.axis == Axis::kId) return id;
  }
  return xpath::kInvalidAstId;
}

// Every engine steps the id axis through the shared step kernel, like an
// axis without postings: the step gets its own profiler row of scanned
// calls, counts as an axis evaluation, and the rows still sum to
// nodes_visited.
TEST(IdStepAccountingTest, IdStepsAreScannedKernelSteps) {
  const xml::Document doc = xml::MakeAuctionDocument(8, 1);
  for (const char* query : {"id(//itemref)/name",
                            "//open_auction[id(itemref)/reserve < current]"}) {
    const xpath::CompiledQuery plan = MustCompile(query);
    const xpath::AstId id_step = IdStepOf(plan);
    ASSERT_NE(id_step, xpath::kInvalidAstId) << query;
    for (EngineKind engine :
         {EngineKind::kBottomUp, EngineKind::kTopDown, EngineKind::kMinContext,
          EngineKind::kOptMinContext}) {
      for (const test::IndexConfig& index : test::kIndexOffOn) {
        test::Cell cell = test::MakeCell(query, engine, index);
        EvalStats stats;
        obs::QueryProfile profile;
        cell.options.stats = &stats;
        cell.options.profile = &profile;
        ASSERT_TRUE(Evaluate(plan, doc, EvalContext{}, cell.options).ok())
            << cell.label;
        EXPECT_GE(stats.axis_evals, 1u) << cell.label;
        EXPECT_EQ(profile.nodes_visited_total(), stats.nodes_visited)
            << cell.label;
        const std::vector<obs::QueryProfile::Step>& rows = profile.steps();
        const auto row =
            std::find_if(rows.begin(), rows.end(),
                         [&](const obs::QueryProfile::Step& step) {
                           return step.ast_id == id_step;
                         });
        if (row == rows.end()) {
          ADD_FAILURE() << "no profiler row for the id step: " << cell.label;
          continue;
        }
        EXPECT_GT(row->calls, 0u) << cell.label;
        EXPECT_EQ(row->scanned_calls, row->calls) << cell.label;
      }
    }
  }
}

// --- Comparison seeds --------------------------------------------------------

/// The location step of `plan` whose node test names `name`.
xpath::AstId StepNamed(const xpath::CompiledQuery& plan,
                       std::string_view name) {
  const xpath::QueryTree& tree = plan.tree();
  for (xpath::AstId id = 0; id < tree.size(); ++id) {
    const xpath::AstNode& n = tree.node(id);
    if (n.kind == xpath::ExprKind::kStep && n.test.name == name) return id;
  }
  return xpath::kInvalidAstId;
}

// OPTMINCONTEXT seeds a bottom-up comparison π RelOp s by testing the
// nodes that pass the node test of π's last step: a scan of all |D|
// nodes with the index off, a postings decode with it on. That work is
// charged as a kernel call of the step, so it shows in the step's
// profiler row, and the rows still sum to nodes_visited.
TEST(SeedAccountingTest, ComparisonSeedIsChargedToTheLastStep) {
  const xml::Document doc = xml::MakeAuctionDocument(120, 1);
  const char* query = "//person[city = 'Graz']/name";
  const xpath::CompiledQuery plan = MustCompile(query);
  const xpath::AstId city = StepNamed(plan, "city");
  ASSERT_NE(city, xpath::kInvalidAstId);
  for (const test::IndexConfig& index : test::kIndexConfigs) {
    test::Cell cell = test::MakeCell(query, EngineKind::kOptMinContext, index);
    EvalStats stats;
    obs::QueryProfile profile;
    cell.options.stats = &stats;
    cell.options.profile = &profile;
    ASSERT_TRUE(Evaluate(plan, doc, EvalContext{}, cell.options).ok())
        << cell.label;
    EXPECT_EQ(profile.nodes_visited_total(), stats.nodes_visited) << cell.label;
    const std::vector<obs::QueryProfile::Step>& rows = profile.steps();
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const obs::QueryProfile::Step& step) {
                                    return step.ast_id == city;
                                  });
    if (row == rows.end()) {
      ADD_FAILURE() << "no profiler row for the city step: " << cell.label;
      continue;
    }
    if (index.use_index) {
      EXPECT_GE(row->indexed_calls, 1u) << cell.label;
    } else {
      EXPECT_GE(row->nodes_visited, static_cast<uint64_t>(doc.size()))
          << cell.label;
    }
  }
}

// --- Budget trips ------------------------------------------------------------

/// contexts_evaluated of an unbudgeted run of `query` on `engine`.
uint64_t UnboundedContexts(const xml::Document& doc, const char* query,
                           EngineKind engine) {
  EvalStats stats;
  EvalOptions options;
  options.engine = engine;
  options.stats = &stats;
  EXPECT_TRUE(Evaluate(MustCompile(query), doc, EvalContext{}, options).ok())
      << EngineKindToString(engine) << " " << query;
  return stats.contexts_evaluated;
}

/// A run under `budget` trips exactly once, and contexts_evaluated stops
/// at the first unit past the budget, whichever engine charged it.
void ExpectTripAtBudgetPlusOne(const xml::Document& doc, const char* query,
                               EngineKind engine, uint64_t budget) {
  EvalStats stats;
  EvalOptions options;
  options.engine = engine;
  options.stats = &stats;
  options.budget = budget;
  const StatusOr<Value> v =
      Evaluate(MustCompile(query), doc, EvalContext{}, options);
  const std::string label = std::string(EngineKindToString(engine)) + " " +
                            query + " budget " + std::to_string(budget);
  ASSERT_FALSE(v.ok()) << label;
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted) << label;
  EXPECT_EQ(stats.budget_trips, 1u) << label;
  EXPECT_EQ(stats.contexts_evaluated, budget + 1) << label;
}

// Every table engine charges through one budget meter: a trip reads
// budget + 1 however many units the charge that tripped it carried (a
// whole E↑ table, a top-down context list, a Core XPath frontier).
TEST(BudgetTest, EveryTableEngineTripsAtBudgetPlusOne) {
  const xml::Document doc = xml::MakeRandomDocument(60, {"a", "b", "c"}, 7);
  const char* query = "//a[b]/c";
  for (EngineKind engine :
       {EngineKind::kBottomUp, EngineKind::kTopDown, EngineKind::kMinContext,
        EngineKind::kOptMinContext, EngineKind::kCoreXPath}) {
    const uint64_t unbounded = UnboundedContexts(doc, query, engine);
    ASSERT_GT(unbounded, 10u) << EngineKindToString(engine);
    for (uint64_t budget : {uint64_t{1}, unbounded / 2}) {
      ExpectTripAtBudgetPlusOne(doc, query, engine, budget);
    }
  }
}

// A budget that runs out inside a selector row trips where the
// per-candidate ⟨cp,cs⟩ loop would.
TEST(BudgetTest, TripsInsideASelectorRow) {
  const xml::Document doc = xml::MakeAuctionDocument(12, 1);
  const char* kQueries[] = {
      // One origin whose row holds every open_auction: the three steps
      // charge one unit each, the selector row the rest.
      "/site/open_auctions/open_auction[last()]",
      "/site/open_auctions/open_auction[1]",
      // Rank-selected sibling rows of the twelve persons, as an outermost
      // step, in an inner path under count(), and in a path under a
      // boolean predicate (propagated bottom-up by OPTMINCONTEXT).
      "/site/people/person/following-sibling::person[1]",
      "/site/people/person/following-sibling::person[last()]",
      "/site/people/person/preceding-sibling::person[1]",
      "/site/people/person/preceding-sibling::person[last()]",
      "/site/people[count(person/following-sibling::person[1]) = 11]",
      "/site/people[count(person/following-sibling::person[last()]) = 11]",
      "/site/people[count(person/preceding-sibling::person[1]) = 11]",
      "/site/people[count(person/preceding-sibling::person[last()]) = 11]",
      "//*[following-sibling::*[1]]",
      "//*[following-sibling::*[last()]]",
      "//*[preceding-sibling::*[1]]",
      "//*[preceding-sibling::*[last()]]",
  };
  for (const char* query : kQueries) {
    for (EngineKind engine :
         {EngineKind::kMinContext, EngineKind::kOptMinContext}) {
      const uint64_t unbounded = UnboundedContexts(doc, query, engine);
      ASSERT_GT(unbounded, 10u) << query;
      for (uint64_t budget : {unbounded / 2, unbounded - 2}) {
        ExpectTripAtBudgetPlusOne(doc, query, engine, budget);
      }
    }
  }
}

TEST(StatsTest, ToStringAndReset) {
  EvalStats stats;
  stats.AddCells(10);
  stats.ReleaseCells(4);
  stats.AddCells(2);
  EXPECT_EQ(stats.cells_allocated, 12u);
  EXPECT_EQ(stats.cells_live, 8u);
  EXPECT_EQ(stats.cells_peak, 10u);
  EXPECT_NE(stats.ToString().find("cells_peak=10"), std::string::npos);
  stats.Reset();
  EXPECT_EQ(stats.cells_allocated, 0u);
}

}  // namespace
}  // namespace xpe
