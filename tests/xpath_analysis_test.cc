// Tests for the analysis passes: normalization (explicit conversions,
// positional predicates, id-axis rewriting, variables), static typing,
// relevant-context computation (§3.1, Example 3) and fragment
// classification (Core XPath Definition 12, Extended Wadler Restrictions
// 1-3).

#include <gtest/gtest.h>

#include "src/xpath/compile.h"
#include "tests/test_util.h"

namespace xpe::xpath {
namespace {

using test::MustCompile;

std::string Normalized(std::string_view query, CompileOptions options = {}) {
  // These tests pin the *normal form*; the optimizer's rewrites on top
  // of it are pinned separately in optimize_test.cc.
  options.optimize = false;
  return MustCompile(query, options).tree().ToString();
}

// --- Normalization ----------------------------------------------------------

TEST(NormalizeTest, NumericPredicateBecomesPositional) {
  EXPECT_EQ(Normalized("a[1]"), "child::a[(position() = 1)]");
  EXPECT_EQ(Normalized("a[last()]"), "child::a[(position() = last())]");
  EXPECT_EQ(Normalized("a[position()]"),
            "child::a[(position() = position())]");
}

TEST(NormalizeTest, NonBooleanPredicatesWrapInBoolean) {
  EXPECT_EQ(Normalized("a[b]"), "child::a[boolean(child::b)]");
  EXPECT_EQ(Normalized("a['x']"), "child::a[boolean('x')]");
  EXPECT_EQ(Normalized("a[b = 1]"), "child::a[(child::b = 1)]");
}

TEST(NormalizeTest, AndOrOperandsBecomeBoolean) {
  EXPECT_EQ(Normalized("a[b and c]"),
            "child::a[(boolean(child::b) and boolean(child::c))]");
  EXPECT_EQ(Normalized("a[1 or b]"),
            "child::a[(boolean(1) or boolean(child::b))]");
}

TEST(NormalizeTest, ArithmeticOperandsBecomeNumbers) {
  EXPECT_EQ(Normalized("'1' + 2"), "(number('1') + 2)");
  EXPECT_EQ(Normalized("a + 1"), "(number(child::a) + 1)");
  EXPECT_EQ(Normalized("-a"), "-number(child::a)");
}

TEST(NormalizeTest, ComparisonsStayPolymorphic) {
  // Figure 1 dispatches comparisons at runtime; no conversions inserted.
  EXPECT_EQ(Normalized("a = 100"), "(child::a = 100)");
  EXPECT_EQ(Normalized("a = b"), "(child::a = child::b)");
  EXPECT_EQ(Normalized("a > 'x'"), "(child::a > 'x')");
}

TEST(NormalizeTest, FunctionArgumentConversions) {
  EXPECT_EQ(Normalized("starts-with(a, 1)"),
            "starts-with(string(child::a), string(1))");
  EXPECT_EQ(Normalized("not(a)"), "not(boolean(child::a))");
  EXPECT_EQ(Normalized("floor('3.7')"), "floor(number('3.7'))");
  EXPECT_EQ(Normalized("concat(1, true())"),
            "concat(string(1), string(true()))");
}

TEST(NormalizeTest, ZeroArgContextFunctions) {
  EXPECT_EQ(Normalized("string()"), "string(self::node())");
  EXPECT_EQ(Normalized("number()"), "number(self::node())");
  EXPECT_EQ(Normalized("string-length()"),
            "string-length(string(self::node()))");
  EXPECT_EQ(Normalized("normalize-space()"),
            "normalize-space(string(self::node()))");
  EXPECT_EQ(Normalized("name()"), "name(self::node())");
}

TEST(NormalizeTest, IdWithNodeSetBecomesIdAxis) {
  // §4: id(id(π)) is rewritten to π/id/id internally. The canonical
  // printer renders id-steps back as id(...) so the form reparses.
  EXPECT_EQ(Normalized("id(a)"), "id(child::a)");
  EXPECT_EQ(Normalized("id(id(a))"), "id(id(child::a))");
  EXPECT_EQ(Normalized("id(//b)/c"),
            "id(/descendant-or-self::node()/child::b)/child::c");
  // Internally these are single paths with id-axis steps: the first step
  // chain of id(a) has two steps (child::a, id).
  xpath::CompiledQuery q = MustCompile("id(a)");
  const AstNode& root = q.tree().node(q.tree().root());
  ASSERT_EQ(root.kind, ExprKind::kPath);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(q.tree().node(root.children[1]).axis, Axis::kId);
}

TEST(NormalizeTest, IdWithScalarConverts) {
  EXPECT_EQ(Normalized("id('x')"), "id('x')");
  EXPECT_EQ(Normalized("id(1)"), "id(string(1))");
}

TEST(NormalizeTest, UnionDistributesOverBooleanAndComparisons) {
  // §4: boolean(π1|π2) → boolean(π1) or boolean(π2), and the same for
  // comparisons, so bottom-up paths never see '|'.
  EXPECT_EQ(Normalized("a[b | c]"),
            "child::a[(boolean(child::b) or boolean(child::c))]");
  EXPECT_EQ(Normalized("a[(b | c) = 100]"),
            "child::a[((child::b = 100) or (child::c = 100))]");
  EXPECT_EQ(Normalized("a[100 = (b | c)]"),
            "child::a[((100 = child::b) or (100 = child::c))]");
}

TEST(NormalizeTest, VariablesSubstitute) {
  CompileOptions options;
  options.bindings["n"] = ScalarBinding::Number(4);
  options.bindings["s"] = ScalarBinding::String("hi");
  options.bindings["b"] = ScalarBinding::Boolean(true);
  EXPECT_EQ(Normalized("a[$n]", options), "child::a[(position() = 4)]");
  EXPECT_EQ(Normalized("$s", options), "'hi'");
  EXPECT_EQ(Normalized("$b", options), "true()");
}

TEST(NormalizeTest, UnboundVariableFails) {
  StatusOr<CompiledQuery> q = Compile("$nope");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidQuery);
}

TEST(NormalizeTest, TypeErrors) {
  // No conversion *to* node-set exists in XPath 1.0.
  EXPECT_FALSE(Compile("count(1)").ok());
  EXPECT_FALSE(Compile("sum('x')").ok());
  EXPECT_FALSE(Compile("1[2]").ok());
  EXPECT_FALSE(Compile("'a' | b").ok());
  EXPECT_FALSE(Compile("count(true())").ok());
}

TEST(NormalizeTest, ResultTypes) {
  EXPECT_EQ(MustCompile("//a").result_type(), ValueType::kNodeSet);
  EXPECT_EQ(MustCompile("count(//a)").result_type(), ValueType::kNumber);
  EXPECT_EQ(MustCompile("'s'").result_type(), ValueType::kString);
  EXPECT_EQ(MustCompile("a = b").result_type(), ValueType::kBoolean);
  EXPECT_EQ(MustCompile("a | b").result_type(), ValueType::kNodeSet);
  EXPECT_EQ(MustCompile("(a)[1]").result_type(), ValueType::kNodeSet);
}

// --- Relevance (§3.1) -------------------------------------------------------

/// Finds the first node whose rendering equals `text` (depth-first).
AstId FindNode(const QueryTree& tree, const std::string& text) {
  for (AstId id = 0; id < tree.size(); ++id) {
    if (tree.ToString(id) == text) return id;
  }
  ADD_FAILURE() << "no node rendering as: " << text;
  return kInvalidAstId;
}

uint8_t RelevOf(const CompiledQuery& q, const std::string& text) {
  return q.tree().node(FindNode(q.tree(), text)).relev;
}

TEST(RelevanceTest, Example3FromThePaper) {
  // Relev(N6)= {cp}, Relev(N7)= {cs}, Relev(N8)= {cn}, Relev(N9)= ∅,
  // Relev(N1)=Relev(N2)= {cn}, Relev(N3)=Relev(N4)= {cn,cp,cs},
  // Relev(N5)= {cn}.
  CompiledQuery q = MustCompile(
      "/descendant::*/descendant::*[position() > last()*0.5 or "
      "self::* = 100]");
  const QueryTree& t = q.tree();
  EXPECT_EQ(RelevOf(q, "position()"), kRelevCp);                    // N6
  EXPECT_EQ(RelevOf(q, "(last() * 0.5)"), kRelevCs);                // N7
  EXPECT_EQ(RelevOf(q, "self::*"), kRelevCn);                       // N8
  EXPECT_EQ(RelevOf(q, "100"), 0);                                  // N9
  EXPECT_EQ(RelevOf(q, "(self::* = 100)"), kRelevCn);               // N5
  // The paper's example text lists Relev(N4) = {cn,cp,cs}, but §3.1's own
  // compound rule gives Relev(position()) ∪ Relev(last()*0.5) = {cp,cs};
  // we follow the rule (the extra 'cn' would only enlarge tables).
  EXPECT_EQ(RelevOf(q, "(position() > (last() * 0.5))"),
            kRelevCp | kRelevCs);                                   // N4
  EXPECT_EQ(
      RelevOf(q, "((position() > (last() * 0.5)) or (self::* = 100))"),
      kRelevCn | kRelevCp | kRelevCs);                              // N3
  EXPECT_EQ(t.node(t.root()).relev, kRelevCn);                      // N1
}

TEST(RelevanceTest, ConstantsAndContextFunctions) {
  EXPECT_EQ(RelevOf(MustCompile("true()"), "true()"), 0);
  EXPECT_EQ(RelevOf(MustCompile("'x'"), "'x'"), 0);
  EXPECT_EQ(RelevOf(MustCompile("1 + 2"), "(1 + 2)"), 0);
  EXPECT_EQ(RelevOf(MustCompile("string()"), "string(self::node())"),
            kRelevCn);
  EXPECT_EQ(RelevOf(MustCompile("count(a)"), "count(child::a)"), kRelevCn);
}

TEST(RelevanceTest, PredicatesDoNotLeakPositionUpward) {
  // position() inside a predicate is internal to the step's node list:
  // the path still depends on cn only.
  CompiledQuery q = MustCompile("a[position() = 2]/b");
  EXPECT_EQ(q.tree().node(q.tree().root()).relev, kRelevCn);
}

TEST(RelevanceTest, MixedOperatorUnions) {
  CompiledQuery q = MustCompile("count(a) + position() + last()");
  EXPECT_EQ(q.tree().node(q.tree().root()).relev,
            kRelevCn | kRelevCp | kRelevCs);
}

TEST(RelevanceTest, RelevToString) {
  EXPECT_EQ(RelevToString(0), "{}");
  EXPECT_EQ(RelevToString(kRelevCn), "{cn}");
  EXPECT_EQ(RelevToString(kRelevCn | kRelevCp | kRelevCs), "{cn,cp,cs}");
}

// --- Fragments (§4, Definition 12) -------------------------------------------

TEST(FragmentTest, CoreXPathMembers) {
  for (const char* q : {
           "/child::a/descendant::b",
           "//a/b",
           "a[b]",
           "a[b and not(c)]",
           "a[.//b or following-sibling::c]",
           "/descendant::*[child::b[child::c]]",
           "ancestor::a[parent::b]",
       }) {
    EXPECT_EQ(MustCompile(q).fragment(), Fragment::kCoreXPath) << q;
  }
}

TEST(FragmentTest, CoreXPathNonMembers) {
  for (const char* q : {
           "a[position() = 2]",          // position
           "a[last()]",                  // last
           "a[b = 100]",                 // comparison
           "count(a)",                   // function result
           "a[count(b) > 1]",            // count
           "id('x')",                    // id
           "a | b",                      // top-level union (per Def. 12)
       }) {
    EXPECT_NE(MustCompile(q).fragment(), Fragment::kCoreXPath) << q;
  }
}

TEST(FragmentTest, ExtendedWadlerMembers) {
  for (const char* q : {
           // The paper's running example and Example 9 are both Wadler.
           "/descendant::*/descendant::*[position() > last()*0.5 or "
           "self::* = 100]",
           "/child::a/descendant::*[boolean(following::d[(position() != "
           "last()) and (preceding-sibling::*/preceding::* = 100)]/"
           "following::d)]",
           "a[position() = last() - 1]",
           "a[b = 'x']",
           "a[id('k')]",
           "a[. = 100]",
       }) {
    CompiledQuery compiled = MustCompile(q);
    EXPECT_NE(compiled.fragment(), Fragment::kFullXPath) << q;
  }
}

TEST(FragmentTest, Restriction1Violations) {
  for (const char* q : {
           "a[string-length(.) > 2]",
           "a[normalize-space(.) = 'x']",
           "a[name() = 'b']",
           "a[local-name(.) = 'b']",
           "a[string(b) = 'x']",
           "a[number(b) = 1]",
       }) {
    EXPECT_EQ(MustCompile(q).fragment(), Fragment::kFullXPath) << q;
  }
}

TEST(FragmentTest, Restriction2Violations) {
  for (const char* q : {
           "a[b = c]",               // nset RelOp nset
           "a[count(b) = 1]",        // count
           "a[sum(b) > 10]",         // sum
           "a[b = position()]",      // scalar depends on context
           "a[b = string(.)]",       // context-dependent scalar
       }) {
    EXPECT_EQ(MustCompile(q).fragment(), Fragment::kFullXPath) << q;
  }
}

TEST(FragmentTest, Restriction3Violations) {
  EXPECT_EQ(MustCompile("a[id(string(.))]").fragment(), Fragment::kFullXPath);
  // id over a constant string is fine.
  EXPECT_NE(MustCompile("a[id('k')]").fragment(), Fragment::kFullXPath);
}

TEST(FragmentTest, ConstantConversionsAllowedInWadler) {
  // Normalizer-inserted conversions around constants keep scalar sizes
  // data-independent and stay inside the fragment (the Restriction 1
  // refinement, docs/architecture.md).
  EXPECT_NE(MustCompile("a['1' + 1 = position()]").fragment(),
            Fragment::kFullXPath);
}

TEST(FragmentTest, BottomUpEligibilityMarks) {
  CompiledQuery q = MustCompile("/a/b[boolean(following::d)]");
  bool found = false;
  for (AstId id = 0; id < q.tree().size(); ++id) {
    if (q.tree().node(id).bottom_up_eligible) {
      found = true;
      EXPECT_EQ(q.tree().ToString(id), "boolean(following::d)");
    }
  }
  EXPECT_TRUE(found);
}

TEST(FragmentTest, NestedBottomUpMarksInnermostToo) {
  // Example 9 has two eligible occurrences: boolean(π) and ρ = 100.
  CompiledQuery q = MustCompile(
      "/child::a/descendant::*[boolean(following::d[(position() != last()) "
      "and (preceding-sibling::*/preceding::* = 100)]/following::d)]");
  int count = 0;
  for (AstId id = 0; id < q.tree().size(); ++id) {
    if (q.tree().node(id).bottom_up_eligible) ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(FragmentTest, FragmentNames) {
  EXPECT_STREQ(FragmentToString(Fragment::kCoreXPath), "CoreXPath");
  EXPECT_STREQ(FragmentToString(Fragment::kExtendedWadler), "ExtendedWadler");
  EXPECT_STREQ(FragmentToString(Fragment::kFullXPath), "FullXPath");
}

}  // namespace
}  // namespace xpe::xpath
