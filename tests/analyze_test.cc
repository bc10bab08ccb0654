// Tests for src/analyze/: the structural summary (strong DataGuide), the
// satisfiability analyzer, the dispatcher's summary pruning, and the lint
// surface.
//
// The load-bearing suite is the differential one: for a corpus of
// satisfiable and unsatisfiable queries, every engine × index tier ×
// result mode must return structurally identical results with analysis
// on and off — and for the unsatisfiable ones the pruned run must show
// pruned_by_summary with O(|Q|) nodes_visited instead of a scan.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace xpe {
namespace {

using analyze::EmptyCause;
using analyze::StepVerdict;
using analyze::StructuralSummary;
using test::MustCompile;
using test::MustParse;

// ---------------------------------------------------------------------------
// Summary vs. brute force
// ---------------------------------------------------------------------------

/// Everything the summary claims about one label path, recomputed the
/// slow way from the document.
struct PathFacts {
  uint64_t element_count = 0;
  std::map<std::string, uint64_t> attributes;  // name -> occurrences
  bool has_text = false;
  bool has_comment = false;
  bool has_pi = false;
};

/// One pass over the document, aggregating per-label-path facts. Nodes
/// are preorder, so a parent's path is always computed before its
/// children need it.
std::map<std::string, PathFacts> BruteForcePaths(const xml::Document& doc) {
  std::map<std::string, PathFacts> facts;
  std::vector<std::string> path_of(doc.size());
  path_of[doc.root()] = "/";
  facts["/"].element_count = 1;  // the document node maps to the root path
  for (xml::NodeId id = 1; id < doc.size(); ++id) {
    const std::string& parent_path = path_of[doc.parent(id)];
    switch (doc.kind(id)) {
      case xml::NodeKind::kElement: {
        std::string path = parent_path == "/" ? "" : parent_path;
        path += '/';
        path += doc.name(id);
        ++facts[path].element_count;
        path_of[id] = std::move(path);
        break;
      }
      case xml::NodeKind::kAttribute:
        ++facts[parent_path].attributes[std::string(doc.name(id))];
        break;
      case xml::NodeKind::kText:
        facts[parent_path].has_text = true;
        break;
      case xml::NodeKind::kComment:
        facts[parent_path].has_comment = true;
        break;
      case xml::NodeKind::kProcessingInstruction:
        facts[parent_path].has_pi = true;
        break;
      case xml::NodeKind::kRoot:
        break;
    }
  }
  return facts;
}

/// The summary's view of the same facts, by recursive traversal.
void CollectSummaryPaths(const StructuralSummary& summary,
                         analyze::SummaryId id,
                         std::map<std::string, PathFacts>* out) {
  const StructuralSummary::Node& n = summary.node(id);
  PathFacts& f = (*out)[summary.LabelPath(id)];
  f.element_count = n.element_count;
  f.has_text = n.has_text;
  f.has_comment = n.has_comment;
  f.has_pi = n.has_pi;
  for (const StructuralSummary::Node::Attribute& a : n.attributes) {
    f.attributes[std::string(summary.NameOf(a.name_id))] = a.count;
  }
  for (analyze::SummaryId child : n.children) {
    CollectSummaryPaths(summary, child, out);
  }
}

void ExpectSummaryMatchesBruteForce(const xml::Document& doc,
                                    const std::string& label) {
  const std::map<std::string, PathFacts> expected = BruteForcePaths(doc);
  const StructuralSummary summary = analyze::Summarize(doc);
  std::map<std::string, PathFacts> actual;
  CollectSummaryPaths(summary, analyze::kRootSummaryId, &actual);

  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (const auto& [path, want] : expected) {
    auto it = actual.find(path);
    ASSERT_NE(it, actual.end()) << label << ": missing path " << path;
    const PathFacts& got = it->second;
    EXPECT_EQ(got.element_count, want.element_count) << label << " " << path;
    EXPECT_EQ(got.attributes, want.attributes) << label << " " << path;
    EXPECT_EQ(got.has_text, want.has_text) << label << " " << path;
    EXPECT_EQ(got.has_comment, want.has_comment) << label << " " << path;
    EXPECT_EQ(got.has_pi, want.has_pi) << label << " " << path;
  }

  // Every document node must resolve to the summary node of its (owner
  // element's) label path — the strong-DataGuide mapping.
  std::vector<std::string> path_of(doc.size());
  path_of[doc.root()] = "/";
  for (xml::NodeId id = 0; id < doc.size(); ++id) {
    if (id != doc.root() && doc.IsElement(id)) {
      const std::string& pp = path_of[doc.parent(id)];
      path_of[id] = (pp == "/" ? "" : pp) + "/" + std::string(doc.name(id));
    } else if (id != doc.root()) {
      path_of[id] = path_of[doc.parent(id)];
    }
    std::optional<analyze::SummaryId> s = summary.Resolve(doc, id);
    ASSERT_TRUE(s.has_value()) << label << " node " << id;
    EXPECT_EQ(summary.LabelPath(*s), path_of[id]) << label << " node " << id;
  }
}

TEST(SummaryTest, MatchesBruteForceOnCorpusDocuments) {
  ExpectSummaryMatchesBruteForce(xml::MakePaperDocument(), "paper");
  ExpectSummaryMatchesBruteForce(xml::MakeBibliographyDocument(25), "bib");
  ExpectSummaryMatchesBruteForce(xml::MakeAuctionDocument(20), "auction");
  ExpectSummaryMatchesBruteForce(
      MustParse("<a>text<b at=\"1\"/><!--c--><?pi p?><b x=\"2\"><a/></b></a>"),
      "mixed");
}

TEST(SummaryTest, MatchesBruteForceOnRandomDocuments) {
  const std::vector<std::string> labels = {"a", "b", "c", "d", "e"};
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    ExpectSummaryMatchesBruteForce(
        xml::MakeRandomDocument(300, labels, seed),
        "random seed " + std::to_string(seed));
  }
}

TEST(SummaryTest, VocabularyAndFlags) {
  const xml::Document doc =
      MustParse("<a><b id=\"1\">t</b><c><b/></c><!--note--></a>");
  const StructuralSummary& summary = doc.summary();
  EXPECT_TRUE(summary.any_text());
  EXPECT_TRUE(summary.any_comment());
  EXPECT_FALSE(summary.any_pi());
  // "/a" has children b and c; "/a/b" is a leaf.
  const auto a = summary.FindChild(analyze::kRootSummaryId,
                                   doc.name_id(doc.first_child(doc.root())));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(summary.node(*a).children.size(), 2u);
  EXPECT_EQ(summary.LabelPath(*a), "/a");
}

TEST(SummaryTest, MemoryUsageReportedAndCached) {
  const xml::Document doc = xml::MakeAuctionDocument(10);
  const StructuralSummary& first = doc.summary();
  EXPECT_GT(first.MemoryUsageBytes(), 0u);
  // Lazily built once: a second call returns the same object.
  EXPECT_EQ(&doc.summary(), &first);
  // Tiny relative to the document: a handful of label paths, not |D|.
  EXPECT_LT(first.size(), doc.size() / 4);
}

TEST(SummaryTest, NearestExistingPath) {
  const xml::Document doc = MustParse("<a><b><c/></b></a>");
  const StructuralSummary& s = doc.summary();
  const xml::NodeId a_node = doc.first_child(doc.root());
  const xml::NodeId b_node = doc.first_child(a_node);
  const xml::NodeId c_node = doc.first_child(b_node);
  const uint32_t a = doc.name_id(a_node);
  const uint32_t b = doc.name_id(b_node);
  const uint32_t c = doc.name_id(c_node);
  // /a/b exists; /a/b/<unused-name> stops at /a/b.
  EXPECT_EQ(s.NearestExistingPath(analyze::kRootSummaryId, {a, b, 9999u}),
            "/a/b");
  EXPECT_EQ(s.NearestExistingPath(analyze::kRootSummaryId, {a, b, c}),
            "/a/b/c");
  EXPECT_EQ(s.NearestExistingPath(analyze::kRootSummaryId, {9999u}), "/");
}

// ---------------------------------------------------------------------------
// Satisfiability verdicts
// ---------------------------------------------------------------------------

/// <a><b id="b1"><c/><c/></b><b id="b2"><d>text</d></b><x><e at="1"/></x></a>
xml::Document VerdictDoc() {
  return MustParse(
      "<a><b id=\"b1\"><c/><c/></b><b id=\"b2\"><d>text</d></b>"
      "<x><e at=\"1\"/></x></a>");
}

analyze::QueryAnalysis Analyze(const std::string& query,
                               const xml::Document& doc,
                               const xpath::CompileOptions& options = {}) {
  const xpath::CompiledQuery q = MustCompile(query, options);
  return analyze::AnalyzeQuery(q, doc, doc.summary());
}

TEST(SatisfiabilityTest, SatisfiableAbsolutePaths) {
  const xml::Document doc = VerdictDoc();
  for (const char* q : {"/a", "/a/b", "/a/b/c", "//c", "//e", "/a/x/e",
                        "descendant::d"}) {
    EXPECT_EQ(Analyze(q, doc).verdict, StepVerdict::kSatisfiable) << q;
  }
}

TEST(SatisfiabilityTest, ProvablyEmptyPaths) {
  const xml::Document doc = VerdictDoc();
  for (const char* q :
       {"//nosuch", "/a/nosuch", "/b", "//c/c", "//x/b", "/a/b/e",
        "//@nosuchattr", "//e/@id", "//nosuch | //alsonot"}) {
    const analyze::QueryAnalysis a = Analyze(q, doc);
    EXPECT_TRUE(a.proves_empty()) << q;
  }
}

TEST(SatisfiabilityTest, NameExistsButNotOnThisPath) {
  // The case postings-based reasoning misses: every name in "/a/x/b" has
  // instances, but no <b> lives under /a/x.
  const xml::Document doc = VerdictDoc();
  const analyze::QueryAnalysis a = Analyze("/a/x/b", doc);
  EXPECT_TRUE(a.proves_empty());
  // The culprit step carries the nearest existing path.
  bool found = false;
  for (const analyze::StepAnalysis& s : a.steps) {
    if (s.verdict == StepVerdict::kEmpty) {
      EXPECT_EQ(s.cause, EmptyCause::kNoSuchPath);
      EXPECT_EQ(s.nearest_path, "/a/x");
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SatisfiabilityTest, EmptyCauses) {
  const xml::Document doc = VerdictDoc();
  auto first_cause = [&doc](const char* q,
                            const xpath::CompileOptions& options =
                                xpath::CompileOptions{}) {
    for (const analyze::StepAnalysis& s :
         Analyze(q, doc, options).steps) {
      if (s.verdict == StepVerdict::kEmpty &&
          s.cause != EmptyCause::kEmptyInput) {
        return s.cause;
      }
    }
    return EmptyCause::kNone;
  };
  EXPECT_EQ(first_cause("//e/@at/child::z"), EmptyCause::kAttributeContext);
  EXPECT_EQ(first_cause("//c/z"), EmptyCause::kUnderLeaf);
  EXPECT_EQ(first_cause("//nosuch"), EmptyCause::kNoSuchPath);
  xpath::CompileOptions no_opt;
  no_opt.optimize = false;
  EXPECT_EQ(first_cause("//b[false()]", no_opt), EmptyCause::kFalsePredicate);
  // An existence predicate over a proven-empty path is a false predicate
  // too — the normalizer wraps it in boolean(π). The inner path's own
  // empty step is analyzed (and recorded) first, so look for the outer
  // step's cause anywhere in the record.
  bool found_false_predicate = false;
  for (const analyze::StepAnalysis& s :
       Analyze("//b[nosuchchild]", doc).steps) {
    if (s.cause == EmptyCause::kFalsePredicate) found_false_predicate = true;
  }
  EXPECT_TRUE(found_false_predicate);
}

TEST(SatisfiabilityTest, PredicatesAreUnknownNotUnsound) {
  const xml::Document doc = VerdictDoc();
  // Value predicates can't be decided from structure alone: never claim
  // emptiness, never claim satisfiability.
  for (const char* q : {"//b[@id='b1']", "//c[position() = 2]",
                        "//b[count(c) > 1]"}) {
    const analyze::QueryAnalysis a = Analyze(q, doc);
    EXPECT_EQ(a.verdict, StepVerdict::kUnknown) << q;
  }
}

TEST(SatisfiabilityTest, ConstantScalarRoots) {
  const xml::Document doc = VerdictDoc();
  const analyze::QueryAnalysis count0 = Analyze("count(//nosuch)", doc);
  ASSERT_TRUE(count0.constant_number.has_value());
  EXPECT_EQ(*count0.constant_number, 0.0);

  const analyze::QueryAnalysis bfalse = Analyze("boolean(//nosuch)", doc);
  ASSERT_TRUE(bfalse.constant_boolean.has_value());
  EXPECT_FALSE(*bfalse.constant_boolean);

  xpath::CompileOptions no_opt;
  no_opt.optimize = false;
  const analyze::QueryAnalysis btrue = Analyze("not(//nosuch)", doc, no_opt);
  ASSERT_TRUE(btrue.constant_boolean.has_value());
  EXPECT_TRUE(*btrue.constant_boolean);

  // A live path is not constant.
  EXPECT_FALSE(Analyze("count(//c)", doc).proves_constant());
  EXPECT_FALSE(Analyze("boolean(//c)", doc).proves_constant());
}

TEST(SatisfiabilityTest, EmptySetComparisonsFollowXPathSemantics) {
  const xml::Document doc = VerdictDoc();
  auto constant = [&doc](const char* q) {
    return Analyze(q, doc).constant_boolean;
  };
  // Against number/string/node-set operands the comparison is an
  // existential over the empty set: false.
  EXPECT_EQ(constant("//nosuch = 1"), std::optional<bool>(false));
  EXPECT_EQ(constant("//nosuch != 'x'"), std::optional<bool>(false));
  EXPECT_EQ(constant("//nosuch = //alsonot"), std::optional<bool>(false));
  // Against a boolean operand XPath compares boolean(∅) = false instead.
  EXPECT_EQ(constant("//nosuch = false()"), std::optional<bool>(true));
  EXPECT_EQ(constant("//nosuch = true()"), std::optional<bool>(false));
  EXPECT_EQ(constant("//nosuch != false()"), std::optional<bool>(false));
  EXPECT_EQ(constant("//nosuch != true()"), std::optional<bool>(true));
  // A live node-set side decides nothing.
  EXPECT_EQ(constant("//c = false()"), std::nullopt);
}

TEST(SatisfiabilityTest, RelativeQueriesUseTheContextNode) {
  const xml::Document doc = VerdictDoc();
  const xml::NodeId a = doc.first_child(doc.root());
  xml::NodeId b = doc.first_child(a);
  while (doc.kind(b) != xml::NodeKind::kElement) b = doc.next_sibling(b);
  xml::NodeId x = b;
  while (doc.next_sibling(x) != xml::kInvalidNodeId) x = doc.next_sibling(x);
  ASSERT_EQ(doc.name(b), "b");
  ASSERT_EQ(doc.name(x), "x");
  const StructuralSummary& summary = doc.summary();
  // /a/x has exactly one instance: the context IS that instance, so the
  // analysis stays exact — "e" is provably satisfiable, "c" provably
  // empty.
  EXPECT_EQ(analyze::AnalyzeQuery(MustCompile("e"), doc, summary, x).verdict,
            StepVerdict::kSatisfiable);
  EXPECT_EQ(analyze::AnalyzeQuery(MustCompile("c"), doc, summary, x).verdict,
            StepVerdict::kEmpty);
  // /a/b has two instances and only the first holds <c> children: from
  // one specific b the analyzer cannot claim satisfiability (the summary
  // aggregates both) — but it must not claim emptiness either.
  EXPECT_EQ(analyze::AnalyzeQuery(MustCompile("c"), doc, summary, b).verdict,
            StepVerdict::kUnknown);
  // And a name absent under every b is still provably empty from b.
  EXPECT_EQ(analyze::AnalyzeQuery(MustCompile("e"), doc, summary, b).verdict,
            StepVerdict::kEmpty);
}

// ---------------------------------------------------------------------------
// Differential: analysis on vs. off, engines × tiers × modes
// ---------------------------------------------------------------------------

struct DiffCase {
  const char* query;
  bool provably_empty;  // expect the non-naive engines to prune
};

const DiffCase kDiffCases[] = {
    // Satisfiable — the prune must never fire, results bit-identical.
    {"/site/people/person", false},
    {"//person", false},
    {"//person/@id", false},
    {"//person[@id]", false},
    {"//item | //nosuch", false},
    {"//person/ancestor::site", false},
    // Unsatisfiable — proven by the summary.
    {"//nosuch", true},
    {"//nosuch/x", true},
    {"/site/nosuch/person", true},
    {"//person/site", true},  // name exists, path doesn't
    {"//@nosuchattr", true},
    {"//person[nosuchchild]", true},
    {"//nosuch | //alsonot", true},
};

TEST(AnalyzeDifferentialTest, ResultsIdenticalWithAndWithoutAnalysis) {
  // Small enough (71 nodes) for the cubic-table E-up engine's document
  // size guard, so every engine in the matrix genuinely evaluates.
  const xml::Document doc = xml::MakeAuctionDocument(5);
  for (const DiffCase& c : kDiffCases) {
    const xpath::CompiledQuery q = MustCompile(c.query);
    // Core XPath runs on every query too: a prune must not mask its
    // rejection of a query outside its fragment.
    for (EngineKind engine : AllEngines()) {
      for (const test::IndexConfig& index : test::kIndexConfigs) {
        for (const test::ModeConfig& mode : test::kModeConfigs) {
          const test::Cell cell = test::MakeCell(c.query, engine, index, mode);
          const std::string& where = cell.label;
          EvalOptions on = cell.options;
          EvalOptions off = on;
          off.analyze = false;
          EvalStats stats_on;
          EvalStats stats_off;
          on.stats = &stats_on;
          off.stats = &stats_off;
          const StatusOr<Value> v_on = Evaluate(q, doc, {}, on);
          const StatusOr<Value> v_off = Evaluate(q, doc, {}, off);
          ASSERT_EQ(v_on.ok(), v_off.ok()) << where;
          if (!v_on.ok()) continue;  // e.g. Core XPath rejecting a query
          EXPECT_TRUE(v_on->StructurallyEquals(*v_off))
              << where << "\n  on:  " << v_on->Repr()
              << "\n  off: " << v_off->Repr();
          if (c.provably_empty && engine != EngineKind::kNaive) {
            EXPECT_EQ(stats_on.pruned_by_summary, 1u) << where;
            // O(|Q|) work instead of a document scan.
            EXPECT_LE(stats_on.nodes_visited, 16u) << where;
          } else {
            // No prune fired: the two runs are bit-identical, stats
            // included.
            EXPECT_EQ(stats_on.pruned_by_summary, 0u) << where;
            EXPECT_EQ(stats_on.nodes_visited, stats_off.nodes_visited)
                << where;
            EXPECT_EQ(stats_on.contexts_evaluated,
                      stats_off.contexts_evaluated)
                << where;
            EXPECT_EQ(stats_on.indexed_steps, stats_off.indexed_steps)
                << where;
          }
        }
      }
    }
  }
}

TEST(AnalyzeDifferentialTest, ScalarRootsPruneToConstants) {
  const xml::Document doc = xml::MakeAuctionDocument(8);
  struct ScalarCase {
    const char* query;
    Value expected;
  };
  const ScalarCase cases[] = {
      {"count(//nosuch)", Value::Number(0.0)},
      {"boolean(//nosuch)", Value::Boolean(false)},
  };
  for (EngineKind engine : test::ConformanceEngines()) {
    for (const ScalarCase& c : cases) {
      const xpath::CompiledQuery q = MustCompile(c.query);
      EvalOptions opts;
      opts.engine = engine;
      const StatusOr<Value> v = Evaluate(q, doc, {}, opts);
      ASSERT_TRUE(v.ok()) << c.query;
      EXPECT_TRUE(v->StructurallyEquals(c.expected))
          << c.query << " engine=" << EngineKindToString(engine) << " got "
          << v->Repr();
    }
  }
  // And the constant cases actually short-circuit on non-naive engines.
  EvalOptions opts;
  opts.engine = EngineKind::kOptMinContext;
  EvalStats stats;
  opts.stats = &stats;
  ASSERT_TRUE(Evaluate(MustCompile("count(//nosuch)"), doc, {}, opts).ok());
  EXPECT_EQ(stats.pruned_by_summary, 1u);
}

TEST(AnalyzeDifferentialTest, NaiveEngineIgnoresAnalysis) {
  const xml::Document doc = xml::MakeAuctionDocument(5);
  const xpath::CompiledQuery q = MustCompile("//nosuch");
  EvalOptions opts;
  opts.engine = EngineKind::kNaive;
  EvalStats stats;
  opts.stats = &stats;
  const StatusOr<Value> v = Evaluate(q, doc, {}, opts);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(stats.pruned_by_summary, 0u);  // the executable specification
}

TEST(AnalyzeDifferentialTest, PruneWorksThroughTheQueryFacade) {
  const xml::Document doc = xml::MakeAuctionDocument(5);
  Query q = *Query::Compile("//nosuch/x");
  EvalStats stats;
  q.WithStats(&stats);
  EXPECT_EQ(q.Nodes(doc)->size(), 0u);
  EXPECT_FALSE(*q.Exists(doc));
  EXPECT_EQ(*q.Count(doc), 0u);
  EXPECT_FALSE(q.First(doc)->has_value());
  EXPECT_EQ(stats.pruned_by_summary, 4u);

  // WithAnalyze(false) turns it off.
  EvalStats stats_off;
  q.WithAnalyze(false).WithStats(&stats_off);
  EXPECT_EQ(q.Nodes(doc)->size(), 0u);
  EXPECT_EQ(stats_off.pruned_by_summary, 0u);
  EXPECT_GT(stats_off.nodes_visited, 0u);
}

TEST(AnalyzeDifferentialTest, ProfileReportsThePrune) {
  const xml::Document doc = xml::MakeAuctionDocument(5);
  Query q = *Query::Compile("//nosuch");
  const StatusOr<obs::ProfileReport> report = q.Profile(doc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.pruned_by_summary, 1u);
  EXPECT_NE(report->text.find("answered by the static analyzer"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::vector<analyze::Diagnostic> LintQuery(
    const std::string& query, const xml::Document& doc,
    const xpath::CompileOptions& options = {}) {
  const xpath::CompiledQuery q = MustCompile(query, options);
  return analyze::Lint(q, doc, doc.summary());
}

bool HasCode(const std::vector<analyze::Diagnostic>& diags,
             analyze::DiagnosticCode code) {
  for (const analyze::Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(DiagnosticsTest, CleanQueryHasNoDiagnostics) {
  const xml::Document doc = VerdictDoc();
  EXPECT_TRUE(LintQuery("/a/b/c", doc).empty());
  EXPECT_TRUE(LintQuery("//b[@id]", doc).empty());
}

TEST(DiagnosticsTest, AlwaysEmptyStepNamesTheNearestPath) {
  const xml::Document doc = VerdictDoc();
  const std::vector<analyze::Diagnostic> diags = LintQuery("/a/x/b", doc);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, analyze::DiagnosticCode::kAlwaysEmptyStep);
  EXPECT_EQ(diags[0].nearest_path, "/a/x");
  EXPECT_NE(diags[0].message.find("nearest existing path is '/a/x'"),
            std::string::npos);
  EXPECT_FALSE(diags[0].subject.empty());
}

TEST(DiagnosticsTest, AttributeContextStep) {
  const xml::Document doc = VerdictDoc();
  const std::vector<analyze::Diagnostic> diags =
      LintQuery("//e/@at/child::z", doc);
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(HasCode(diags, analyze::DiagnosticCode::kAttributeContextStep));
}

TEST(DiagnosticsTest, DescendantUnderLeaf) {
  const xml::Document doc = VerdictDoc();
  const std::vector<analyze::Diagnostic> diags = LintQuery("//c/z", doc);
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(HasCode(diags, analyze::DiagnosticCode::kDescendantUnderLeaf));
  EXPECT_NE(diags[0].message.find("no element children"), std::string::npos);
}

TEST(DiagnosticsTest, ConstantFalsePredicateSyntacticAndSemantic) {
  const xml::Document doc = VerdictDoc();
  xpath::CompileOptions no_opt;
  no_opt.optimize = false;
  // Literal false() survives only without the optimizer; flagged once
  // (the analysis and the syntactic sweep dedupe).
  const std::vector<analyze::Diagnostic> lit =
      LintQuery("//b[false()]", doc, no_opt);
  ASSERT_FALSE(lit.empty());
  EXPECT_TRUE(HasCode(lit, analyze::DiagnosticCode::kConstantFalsePredicate));
  // An existence predicate over a proven-empty path: semantic-only.
  const std::vector<analyze::Diagnostic> sem =
      LintQuery("//b[nosuchchild]", doc);
  ASSERT_FALSE(sem.empty());
  EXPECT_TRUE(HasCode(sem, analyze::DiagnosticCode::kConstantFalsePredicate));
}

TEST(DiagnosticsTest, RedundantSelfStepBothPipelines) {
  const xml::Document doc = VerdictDoc();
  xpath::CompileOptions no_opt;
  no_opt.optimize = false;
  const std::vector<analyze::Diagnostic> unopt =
      LintQuery("/a/./b", doc, no_opt);
  ASSERT_FALSE(unopt.empty());
  EXPECT_TRUE(HasCode(unopt, analyze::DiagnosticCode::kRedundantSelfStep));
  EXPECT_NE(unopt[0].node, xpath::kInvalidAstId);
  // With the optimizer on, the step is gone from the tree but the plan
  // records the removal — reported as a plan-level diagnostic.
  const std::vector<analyze::Diagnostic> opt = LintQuery("/a/./b", doc);
  ASSERT_FALSE(opt.empty());
  EXPECT_TRUE(HasCode(opt, analyze::DiagnosticCode::kRedundantSelfStep));
  EXPECT_EQ(opt[0].node, xpath::kInvalidAstId);
  EXPECT_NE(opt[0].message.find("optimizer removed 1"), std::string::npos);
}

TEST(DiagnosticsTest, RenderDiagnostics) {
  const xml::Document doc = VerdictDoc();
  const std::string text =
      analyze::RenderDiagnostics(LintQuery("/a/x/b", doc));
  EXPECT_NE(text.find("warning: [always-empty-step]"), std::string::npos);
  EXPECT_EQ(analyze::RenderDiagnostics({}), "");
}

TEST(DiagnosticsTest, QueryFacadeDiagnostics) {
  const xml::Document doc = VerdictDoc();
  Query q = *Query::Compile("//nosuch");
  const std::vector<analyze::Diagnostic> diags = q.Diagnostics(doc);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, analyze::DiagnosticCode::kAlwaysEmptyStep);
  // Flagged queries still evaluate fine.
  EXPECT_EQ(q.Nodes(doc)->size(), 0u);
}

}  // namespace
}  // namespace xpe
