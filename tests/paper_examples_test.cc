// Locks down every worked example of the paper:
//  - §2.4 running example: the query e on the Figure 2 document, the
//    context-value tables of Figures 4 and 5, and the final result;
//  - Example 4 (outermost paths as node sets);
//  - Example 5 (the ⟨cp,cs⟩ loop outcome);
//  - §5 Example 9: the OPTMINCONTEXT bottom-up trace and result.
// Two documented paper errata are covered by PaperErrata* tests below.

#include <gtest/gtest.h>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::ConformanceEngines;
using test::MustCompile;

constexpr const char* kRunningExample =
    "/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]";

constexpr const char* kExample9 =
    "/child::a/descendant::*[boolean(following::d[(position() != last()) and "
    "(preceding-sibling::*/preceding::* = 100)]/following::d)]";

class PaperExamplesTest : public testing::Test {
 protected:
  PaperExamplesTest() : doc_(xml::MakePaperDocument()) {}

  xml::NodeId X(const std::string& id) const {
    return *doc_.GetElementById(id);
  }

  /// Evaluates relative to context node x<id> and renders ids.
  std::vector<std::string> Run(std::string_view query, const std::string& cn,
                               EngineKind engine) {
    EvalContext ctx;
    ctx.node = X(cn);
    return test::EvalIds(query, doc_, engine, ctx);
  }

  xml::Document doc_;
};

TEST_F(PaperExamplesTest, RunningExampleFinalResult) {
  // "The final result of evaluating e is {x13, x14, x21, x22, x23, x24}."
  const std::vector<std::string> expected = {"13", "14", "21",
                                             "22", "23", "24"};
  for (EngineKind engine : ConformanceEngines()) {
    EXPECT_EQ(Run(kRunningExample, "10", engine), expected)
        << EngineKindToString(engine);
  }
}

TEST_F(PaperExamplesTest, Figure4TableN2) {
  // table(N2): cn=x10 → {x14,x21,x22,x23,x24}; x11 → {x13,x14};
  // x21 → {x23,x24}. N2 is the *relative* subexpression
  // descendant::*[...] evaluated at each previous context node.
  const char* n2 =
      "descendant::*[position() > last()*0.5 or self::* = 100]";
  EXPECT_EQ(Run(n2, "10", EngineKind::kMinContext),
            (std::vector<std::string>{"14", "21", "22", "23", "24"}));
  EXPECT_EQ(Run(n2, "11", EngineKind::kMinContext),
            (std::vector<std::string>{"13", "14"}));
  EXPECT_EQ(Run(n2, "21", EngineKind::kMinContext),
            (std::vector<std::string>{"23", "24"}));
  // "the resulting node set is empty for all values of cn except
  //  {x10, x11, x21}" — spot-check a few.
  for (const char* cn : {"12", "13", "14", "22", "23", "24"}) {
    EXPECT_TRUE(Run(n2, cn, EngineKind::kMinContext).empty()) << cn;
  }
}

TEST_F(PaperExamplesTest, Figure4TableN3Rows) {
  // Predicate rows for the context list reached via x10 (cs = 8):
  // false for positions 1..3 except where self::*=100; true from 4 on.
  xpath::CompiledQuery pred = MustCompile(
      "position() > last()*0.5 or self::* = 100");
  struct Row {
    const char* cn;
    uint32_t cp, cs;
    bool expected;
  };
  const Row rows[] = {
      {"11", 1, 8, false}, {"12", 2, 8, false}, {"13", 3, 8, false},
      {"14", 4, 8, true},  {"21", 5, 8, true},  {"22", 6, 8, true},
      {"23", 7, 8, true},  {"24", 8, 8, true},  {"12", 1, 3, false},
      {"13", 2, 3, true},  {"14", 3, 3, true},  {"22", 1, 3, false},
      {"23", 2, 3, true},  {"24", 3, 3, true},
  };
  for (const Row& row : rows) {
    EvalContext ctx{X(row.cn), row.cp, row.cs};
    StatusOr<Value> v = Evaluate(pred, doc_, ctx);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->boolean(), row.expected)
        << "cn=x" << row.cn << " cp=" << row.cp << " cs=" << row.cs;
  }
}

TEST_F(PaperExamplesTest, Figure5TableN5RestrictedToCn) {
  // N5 = self::* = 100, keyed by cn only (Relev(N5) = {cn}).
  xpath::CompiledQuery n5 = MustCompile("self::* = 100");
  const std::pair<const char*, bool> rows[] = {
      {"11", false}, {"12", false}, {"13", false}, {"14", true},
      {"21", false}, {"22", false}, {"23", false},
  };
  for (const auto& [cn, expected] : rows) {
    EvalContext ctx{X(cn), 1, 1};
    StatusOr<Value> v = Evaluate(n5, doc_, ctx);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->boolean(), expected) << "x" << cn;
  }
}

TEST_F(PaperExamplesTest, PaperErrataFigure5X24) {
  // Figure 5 prints "false" for x24, contradicting Figure 4 (rows
  // ⟨x24,8,8⟩ and ⟨x24,3,3⟩ are "true") and the semantics:
  // strval(x24) = "100", so self::* = 100 holds. We assert the
  // semantically correct value.
  xpath::CompiledQuery n5 = MustCompile("self::* = 100");
  EvalContext ctx{X("24"), 1, 1};
  StatusOr<Value> v = Evaluate(n5, doc_, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->boolean());
}

TEST_F(PaperExamplesTest, Figure5TableN7RestrictedToCs) {
  // N7 = last()*0.5, keyed by cs only: cs=8 → 4, cs=3 → 1.5.
  xpath::CompiledQuery n7 = MustCompile("last()*0.5");
  EvalContext c8{X("11"), 1, 8};
  EvalContext c3{X("12"), 1, 3};
  EXPECT_EQ(Evaluate(n7, doc_, c8)->number(), 4.0);
  EXPECT_EQ(Evaluate(n7, doc_, c3)->number(), 1.5);
}

TEST_F(PaperExamplesTest, Figure5TableN6PositionOnly) {
  // N6 = position(): depends on cp alone.
  xpath::CompiledQuery n6 = MustCompile("position()");
  for (uint32_t cp = 1; cp <= 8; ++cp) {
    EvalContext ctx{X("11"), cp, 8};
    EXPECT_EQ(Evaluate(n6, doc_, ctx)->number(), cp);
  }
}

TEST_F(PaperExamplesTest, Example4OutermostPaths) {
  // X = all nine elements reached by /descendant::*; Y = final result.
  EXPECT_EQ(Run("/descendant::*", "10", EngineKind::kMinContext),
            (std::vector<std::string>{"10", "11", "12", "13", "14", "21",
                                      "22", "23", "24"}));
}

TEST_F(PaperExamplesTest, Example5SingleContextProbe) {
  // "for ⟨cn,cp,cs⟩ = ⟨x23,7,8⟩ ... we get the overall value true ...
  //  hence x23 is added to X'".
  xpath::CompiledQuery pred = MustCompile(
      "position() > last()*0.5 or self::* = 100");
  EvalContext ctx{X("23"), 7, 8};
  EXPECT_TRUE(Evaluate(pred, doc_, ctx)->boolean());
}

TEST_F(PaperExamplesTest, Example9FinalResult) {
  // "the final result of the query Q is {x11, x12, x13, x14, x22}".
  const std::vector<std::string> expected = {"11", "12", "13", "14", "22"};
  for (EngineKind engine : ConformanceEngines()) {
    EXPECT_EQ(Run(kExample9, "10", engine), expected)
        << EngineKindToString(engine);
  }
}

TEST_F(PaperExamplesTest, Example9InnerPathRho) {
  // ρ ≡ preceding-sibling::*/preceding::* with "= 100" holds exactly for
  // {x23, x24} (the paper's table(N8)).
  const char* rho_holds = "descendant::*[preceding-sibling::*/preceding::* = 100]";
  EXPECT_EQ(Run(rho_holds, "10", EngineKind::kOptMinContext),
            (std::vector<std::string>{"23", "24"}));
}

TEST_F(PaperExamplesTest, Example9InitialYForRho) {
  // Y := {x14, x24}: the nodes whose strval equals 100.
  EXPECT_EQ(Run("descendant-or-self::*[self::* = 100]", "10",
                EngineKind::kOptMinContext),
            (std::vector<std::string>{"14", "24"}));
}

TEST_F(PaperExamplesTest, Example9BackwardSteps) {
  // following(x14 ∪ x24) = {x21, x22, x23, x24};
  NodeSet y({X("14"), X("24")});
  NodeSet f = EvalAxisInverse(doc_, Axis::kPreceding, y);
  // (preceding⁻¹ = following)
  NodeSet expected_f;
  for (const char* id : {"21", "22", "23", "24"}) {
    expected_f.PushBackOrdered(X(id));
  }
  // f also contains text children of x22..x24 — restrict to elements.
  NodeSet f_elems;
  for (xml::NodeId n : f) {
    if (doc_.IsElement(n)) f_elems.PushBackOrdered(n);
  }
  EXPECT_EQ(f_elems, expected_f);

  // following-sibling(·) of that = {x23, x24}.
  NodeSet fs = EvalAxisInverse(doc_, Axis::kPrecedingSibling, f_elems);
  NodeSet fs_elems;
  for (xml::NodeId n : fs) {
    if (doc_.IsElement(n)) fs_elems.PushBackOrdered(n);
  }
  EXPECT_EQ(fs_elems, NodeSet({X("23"), X("24")}));
}

TEST_F(PaperExamplesTest, PaperErrataExample9Positions) {
  // Example 9 computes the contexts ⟨x14,2,6⟩/⟨x23,5,6⟩ over the
  // unfiltered following::* list; Definition 2 and [18] §2.4 take
  // positions in the node-test-filtered list following::d (x14 is 1st of
  // 3 d-followers of x12, x23 the 2nd). Both readings satisfy
  // "position() != last()" here — the paper's final result is unchanged,
  // which this checks end-to-end (see "Paper notes" in
  // docs/architecture.md).
  xpath::CompiledQuery pos = MustCompile(
      "count(following::d[position() != last()])");
  EvalContext ctx{X("12"), 1, 1};
  // d-followers of x12: x14, x23, x24 → positions 1,2 pass, 3 = last fails.
  EXPECT_EQ(Evaluate(pos, doc_, ctx)->number(), 2.0);
}

TEST_F(PaperExamplesTest, ContextValueTableCellsStayQuadratic) {
  // "no context-value table contains more than |dom|² entries" (§2.4):
  // check the instrumented cell counts for the running example.
  xpath::CompiledQuery q = MustCompile(kRunningExample);
  EvalStats stats;
  EvalOptions options;
  options.engine = EngineKind::kMinContext;
  options.stats = &stats;
  ASSERT_TRUE(Evaluate(q, doc_, EvalContext{X("10"), 1, 1}, options).ok());
  const uint64_t d = doc_.size();
  // |Q| table slots, each at most |dom|² cells.
  EXPECT_LE(stats.cells_peak, d * d * q.tree().size());
  EXPECT_GT(stats.cells_allocated, 0u);
}

}  // namespace
}  // namespace xpe
