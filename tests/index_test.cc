// Unit tests for the src/index subsystem: DocumentIndex construction
// (per-name and `*` postings), the indexed step kernels' equivalence
// with the scan path they replace, the compile-time eligibility
// annotation, and the thread-safety of Document's lazy caches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "src/core/step_common.h"
#include "src/index/document_index.h"
#include "src/index/step_index.h"
#include "src/xml/generator.h"
#include "src/xpath/relevance.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using index::DocumentIndex;
using test::MustCompile;
using test::MustParse;
using xml::NodeId;
using xml::NodeKind;
using xpath::NodeTest;

NodeTest NameTest(std::string name) {
  NodeTest t;
  t.kind = NodeTest::Kind::kName;
  t.name = std::move(name);
  return t;
}

NodeTest AnyTest() { return NodeTest(); }  // kAny is the default

TEST(DocumentIndexTest, PostingsOnPaperDocument) {
  xml::Document doc = xml::MakePaperDocument();
  const DocumentIndex& idx = doc.index();

  // Postings partition the elements by tag, in document order.
  size_t named_total = 0;
  for (const char* tag : {"a", "b", "c", "d"}) {
    const std::vector<NodeId>& postings =
        idx.ElementsNamed(doc.LookupNameId(tag));
    EXPECT_FALSE(postings.empty()) << tag;
    named_total += postings.size();
    for (size_t i = 0; i < postings.size(); ++i) {
      EXPECT_TRUE(doc.IsElement(postings[i]));
      EXPECT_EQ(doc.name(postings[i]), tag);
      if (i > 0) EXPECT_LT(postings[i - 1], postings[i]);
    }
  }
  EXPECT_EQ(named_total, idx.all_elements().size());

  // The paper document carries one id attribute per element.
  const std::vector<NodeId>& ids = idx.AttributesNamed(doc.LookupNameId("id"));
  EXPECT_EQ(ids.size(), idx.all_elements().size());
  EXPECT_EQ(ids.size(), idx.all_attributes().size());

  EXPECT_GT(idx.MemoryUsageBytes(), 0u);
}

TEST(DocumentIndexTest, UnknownAndUnnamedLookupsAreEmpty) {
  xml::Document doc = MustParse("<a><b/>text<!--c--><?p q?></a>");
  const DocumentIndex& idx = doc.index();
  EXPECT_TRUE(idx.ElementsNamed(doc.LookupNameId("nosuch")).empty());
  EXPECT_TRUE(idx.AttributesNamed(doc.LookupNameId("a")).empty());
  // The PI target is an interned name that no element or attribute
  // carries.
  const uint32_t pi_target = doc.LookupNameId("p");
  ASSERT_NE(pi_target, xml::kNoString);
  EXPECT_TRUE(idx.ElementsNamed(pi_target).empty());
  EXPECT_TRUE(idx.AttributesNamed(pi_target).empty());
  EXPECT_EQ(idx.all_elements().size(), 2u);

  // The text, comment and PI nodes appear in no postings list.
  std::vector<NodeId> indexed = idx.all_elements();
  indexed.insert(indexed.end(), idx.all_attributes().begin(),
                 idx.all_attributes().end());
  for (uint32_t name = 0; name < doc.name_count(); ++name) {
    for (const std::vector<NodeId>* postings :
         {&idx.ElementsNamed(name), &idx.AttributesNamed(name)}) {
      indexed.insert(indexed.end(), postings->begin(), postings->end());
    }
  }
  int unindexed_nodes = 0;
  for (NodeId id = 0; id < doc.size(); ++id) {
    const NodeKind kind = doc.kind(id);
    if (kind != NodeKind::kText && kind != NodeKind::kComment &&
        kind != NodeKind::kProcessingInstruction) {
      continue;
    }
    ++unindexed_nodes;
    EXPECT_EQ(std::count(indexed.begin(), indexed.end(), id), 0) << id;
  }
  EXPECT_EQ(unindexed_nodes, 3);
}

/// Every eligible (axis, test) pair, evaluated from assorted origin sets
/// on random documents: the indexed kernel must reproduce the scan path
/// node for node on each tier, including the broad child and ancestor
/// steps IndexedStepWorthwhile sends to the scan.
TEST(StepIndexTest, IndexedStepMatchesScanPath) {
  const std::vector<NodeTest> tests = {NameTest("a"), NameTest("b"),
                                       NameTest("nosuch"), NameTest("id"),
                                       AnyTest()};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    xml::Document doc = xml::MakeRandomDocument(60, {"a", "b", "c"}, seed);
    // Origin sets: every node alone, stride-3 and stride-7 sets (nested
    // origins), every other child of the document element (disjoint
    // origins with gaps between them) and the universe.
    std::vector<NodeSet> origin_sets;
    for (NodeId id = 0; id < doc.size(); ++id) {
      origin_sets.push_back(NodeSet::Single(id));
    }
    for (NodeId stride : {3, 7}) {
      NodeSet set;
      for (NodeId id = 0; id < doc.size(); id += stride) {
        set.PushBackOrdered(id);
      }
      origin_sets.push_back(std::move(set));
    }
    NodeSet alternate;
    bool take = true;
    for (NodeId id = 0; id < doc.size(); ++id) {
      if (doc.parent(id) != 1 || doc.IsAttribute(id)) continue;
      if (take) alternate.PushBackOrdered(id);
      take = !take;
    }
    ASSERT_GT(alternate.size(), 1u) << "seed " << seed;
    origin_sets.push_back(std::move(alternate));
    origin_sets.push_back(NodeSet::Universe(doc.size()));

    for (int a = 0; a < kNumAxes; ++a) {
      const Axis axis = static_cast<Axis>(a);
      for (const NodeTest& test : tests) {
        if (!xpath::StepIsIndexEligible(axis, test)) continue;
        for (const NodeSet& x : origin_sets) {
          NodeSet scan =
              ApplyNodeTest(doc, axis, test, EvalAxis(doc, axis, x));
          for (index::IndexTier tier :
               {index::IndexTier::kHot, index::IndexTier::kDense}) {
            const index::PostingsView postings =
                index::StepPostings(doc, doc.index_view(tier), axis, test);
            std::vector<NodeId> out;
            index::IndexedStepOverPostingsInto(doc, postings, axis, test,
                                               x.ids(), &out);
            ASSERT_EQ(out, scan.ids())
                << "seed " << seed << " axis " << AxisToString(axis)
                << " test " << test.ToString() << " |x|=" << x.size()
                << " tier " << static_cast<int>(tier);
          }
        }
      }
    }
  }
}

TEST(StepIndexTest, IndexedApplyNodeTestMatchesScanPath) {
  xml::Document doc = xml::MakeRandomDocument(80, {"a", "b", "c"}, 99);
  std::vector<NodeSet> sets = {NodeSet::Universe(doc.size()), NodeSet(),
                               NodeSet::Single(0)};
  NodeSet stride;
  for (NodeId id = 0; id < doc.size(); id += 5) stride.PushBackOrdered(id);
  sets.push_back(std::move(stride));
  for (Axis axis : {Axis::kChild, Axis::kAttribute}) {
    for (const NodeTest& test :
         {NameTest("a"), NameTest("id"), NameTest("zz"), AnyTest()}) {
      for (const NodeSet& set : sets) {
        for (index::IndexTier tier :
             {index::IndexTier::kHot, index::IndexTier::kDense}) {
          std::vector<NodeId> out;
          index::IndexedApplyNodeTestInto(doc, doc.index_view(tier), axis,
                                          test, set.ids(), &out);
          EXPECT_EQ(out, ApplyNodeTest(doc, axis, test, set).ids())
              << AxisToString(axis) << " " << test.ToString() << " tier "
              << index::IndexTierToString(tier);
        }
      }
    }
  }
}

TEST(StepIndexTest, EligibilityMatrix) {
  const NodeTest name = NameTest("a");
  const NodeTest any = AnyTest();
  NodeTest text;
  text.kind = NodeTest::Kind::kText;
  NodeTest node;
  node.kind = NodeTest::Kind::kNode;

  for (Axis axis : {Axis::kSelf, Axis::kChild, Axis::kParent,
                    Axis::kDescendant, Axis::kDescendantOrSelf,
                    Axis::kFollowing, Axis::kPreceding, Axis::kAttribute}) {
    EXPECT_TRUE(xpath::StepIsIndexEligible(axis, name)) << AxisToString(axis);
    EXPECT_TRUE(xpath::StepIsIndexEligible(axis, any)) << AxisToString(axis);
  }
  for (Axis axis : {Axis::kAncestor, Axis::kAncestorOrSelf}) {
    EXPECT_TRUE(xpath::StepIsIndexEligible(axis, name));
    EXPECT_FALSE(xpath::StepIsIndexEligible(axis, any));
  }
  for (Axis axis : {Axis::kFollowingSibling, Axis::kPrecedingSibling,
                    Axis::kId}) {
    EXPECT_FALSE(xpath::StepIsIndexEligible(axis, name)) << AxisToString(axis);
  }
  for (Axis axis : {Axis::kChild, Axis::kDescendant}) {
    EXPECT_FALSE(xpath::StepIsIndexEligible(axis, text));
    EXPECT_FALSE(xpath::StepIsIndexEligible(axis, node));
  }
}

TEST(StepIndexTest, CompileAnnotatesEligibleSteps) {
  xpath::CompiledQuery q = MustCompile("//b/ancestor::a/child::c[text()]");
  int eligible = 0, steps = 0;
  for (xpath::AstId id = 0; id < q.tree().size(); ++id) {
    const xpath::AstNode& n = q.tree().node(id);
    if (n.kind != xpath::ExprKind::kStep) continue;
    ++steps;
    eligible += n.index_eligible;
    EXPECT_EQ(n.index_eligible, xpath::StepIsIndexEligible(n.axis, n.test));
  }
  // descendant-or-self::node() (from //) is ineligible; text() too.
  EXPECT_GE(steps, 4);
  EXPECT_EQ(eligible, 3);
}

/// Engines produce identical results with the index on and off, and the
/// stats confirm the indexed path actually ran.
TEST(StepIndexTest, EnginesUseIndexAndAgree) {
  xml::Document doc = xml::MakeGrownPaperDocument(4);
  for (const char* query : {"//b/c", "//c/ancestor::b", "//b[c]/d",
                            "/descendant::d[. = 100]"}) {
    xpath::CompiledQuery compiled = MustCompile(query);
    for (EngineKind engine :
         {EngineKind::kTopDown, EngineKind::kMinContext,
          EngineKind::kOptMinContext, EngineKind::kCoreXPath}) {
      if (engine == EngineKind::kCoreXPath &&
          compiled.fragment() != xpath::Fragment::kCoreXPath) {
        continue;
      }
      EvalStats stats_on, stats_off;
      EvalOptions on;
      on.engine = engine;
      on.use_index = true;
      on.stats = &stats_on;
      EvalOptions off = on;
      off.use_index = false;
      off.stats = &stats_off;
      StatusOr<Value> with_index = Evaluate(compiled, doc, EvalContext{}, on);
      StatusOr<Value> without = Evaluate(compiled, doc, EvalContext{}, off);
      ASSERT_TRUE(with_index.ok()) << query;
      ASSERT_TRUE(without.ok()) << query;
      EXPECT_TRUE(with_index->StructurallyEquals(*without))
          << query << " on " << EngineKindToString(engine);
      EXPECT_GT(stats_on.indexed_steps, 0u)
          << query << " on " << EngineKindToString(engine);
      EXPECT_EQ(stats_off.indexed_steps, 0u);
    }
  }
}

/// Concurrent first-use of every lazy Document cache: the once_flag /
/// mutex guards must make this race-free (run under TSan in CI to get
/// the full benefit).
TEST(DocumentThreadSafetyTest, ConcurrentLazyCacheFirstUse) {
  xml::Document doc = xml::MakeAuctionDocument(6, 7);
  xpath::CompiledQuery query = MustCompile("id(//itemref)/name");
  std::vector<std::thread> threads;
  std::vector<size_t> index_sizes(8, 0);
  std::vector<double> numbers(8, 0);
  std::vector<size_t> results(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      index_sizes[t] = doc.index().all_elements().size();
      numbers[t] = doc.NumberValue(doc.size() / 2);
      StatusOr<NodeSet> r = EvaluateNodeSet(query, doc);
      results[t] = r.ok() ? r->size() : static_cast<size_t>(-1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(index_sizes[t], index_sizes[0]);
    // NumberValue may legitimately be NaN; all threads must still agree.
    EXPECT_TRUE(numbers[t] == numbers[0] ||
                (std::isnan(numbers[t]) && std::isnan(numbers[0])));
    EXPECT_EQ(results[t], results[0]);
  }
  EXPECT_NE(results[0], static_cast<size_t>(-1));
}

}  // namespace
}  // namespace xpe
