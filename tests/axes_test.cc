#include <gtest/gtest.h>

#include <random>

#include "src/axes/axis.h"
#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustParse;
using xml::Document;
using xml::NodeId;
using xml::NodeKind;

// --- NodeSet ---------------------------------------------------------------

TEST(NodeSetTest, SortsAndDeduplicates) {
  NodeSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 5u);
  EXPECT_EQ(s.First(), 1u);
}

TEST(NodeSetTest, SetAlgebra) {
  NodeSet a({1, 2, 3});
  NodeSet b({2, 3, 4});
  EXPECT_EQ(a.Union(b), NodeSet({1, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), NodeSet({2, 3}));
  EXPECT_EQ(a.Difference(b), NodeSet({1}));
  EXPECT_EQ(b.Difference(a), NodeSet({4}));
}

TEST(NodeSetTest, ContainsAndEmpty) {
  NodeSet s({2, 7});
  EXPECT_TRUE(s.Contains(2));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(NodeSet().empty());
  EXPECT_EQ(NodeSet().Union(s), s);
}

TEST(NodeSetTest, UniverseAndToString) {
  NodeSet u = NodeSet::Universe(3);
  EXPECT_EQ(u, NodeSet({0, 1, 2}));
  EXPECT_EQ(u.ToString(), "{0, 1, 2}");
  EXPECT_EQ(NodeSet().ToString(), "{}");
}

TEST(NodeBitmapTest, RoundTripsThroughNodeSet) {
  NodeSet s({0, 4, 9});
  NodeBitmap bm(10, s);
  EXPECT_TRUE(bm.Test(4));
  EXPECT_FALSE(bm.Test(5));
  bm.Set(5);
  bm.Clear(0);
  EXPECT_EQ(bm.ToNodeSet(), NodeSet({4, 5, 9}));
}

// --- Axis names -------------------------------------------------------------

TEST(AxisTest, NamesRoundTrip) {
  for (int i = 0; i < kNumAxes; ++i) {
    Axis axis = static_cast<Axis>(i);
    auto parsed = AxisFromString(AxisToString(axis));
    ASSERT_TRUE(parsed.has_value()) << AxisToString(axis);
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_FALSE(AxisFromString("namespace").has_value());
  EXPECT_FALSE(AxisFromString("sideways").has_value());
}

TEST(AxisTest, ReverseAxes) {
  EXPECT_TRUE(AxisIsReverse(Axis::kParent));
  EXPECT_TRUE(AxisIsReverse(Axis::kAncestor));
  EXPECT_TRUE(AxisIsReverse(Axis::kAncestorOrSelf));
  EXPECT_TRUE(AxisIsReverse(Axis::kPreceding));
  EXPECT_TRUE(AxisIsReverse(Axis::kPrecedingSibling));
  EXPECT_FALSE(AxisIsReverse(Axis::kSelf));
  EXPECT_FALSE(AxisIsReverse(Axis::kChild));
  EXPECT_FALSE(AxisIsReverse(Axis::kDescendant));
  EXPECT_FALSE(AxisIsReverse(Axis::kFollowing));
  EXPECT_FALSE(AxisIsReverse(Axis::kFollowingSibling));
}

// --- Axis semantics on the paper document ------------------------------------

class AxisSemanticsTest : public testing::Test {
 protected:
  AxisSemanticsTest() : doc_(xml::MakePaperDocument()) {}

  NodeId X(const std::string& id) const {
    return *doc_.GetElementById(id);
  }

  /// Elements of χ({origin}) as id strings, in document order.
  std::vector<std::string> Ids(Axis axis, NodeId origin) const {
    std::vector<std::string> out;
    for (NodeId n : AxisFromNode(doc_, axis, origin)) {
      if (doc_.IsElement(n)) {
        out.push_back(std::string(*doc_.Attribute(n, "id")));
      }
    }
    return out;
  }

  Document doc_;
};

TEST_F(AxisSemanticsTest, Child) {
  EXPECT_EQ(Ids(Axis::kChild, X("10")),
            (std::vector<std::string>{"11", "21"}));
  EXPECT_EQ(Ids(Axis::kChild, X("11")),
            (std::vector<std::string>{"12", "13", "14"}));
  EXPECT_TRUE(Ids(Axis::kChild, X("12")).empty());  // only a text child
}

TEST_F(AxisSemanticsTest, Parent) {
  EXPECT_EQ(Ids(Axis::kParent, X("12")), (std::vector<std::string>{"11"}));
  EXPECT_EQ(AxisFromNode(doc_, Axis::kParent, X("10")),
            NodeSet::Single(doc_.root()));
  EXPECT_TRUE(AxisFromNode(doc_, Axis::kParent, doc_.root()).empty());
}

TEST_F(AxisSemanticsTest, DescendantFromX10) {
  EXPECT_EQ(Ids(Axis::kDescendant, X("10")),
            (std::vector<std::string>{"11", "12", "13", "14", "21", "22",
                                      "23", "24"}));
}

TEST_F(AxisSemanticsTest, DescendantExcludesAttributesAndSelf) {
  NodeSet d = AxisFromNode(doc_, Axis::kDescendant, X("11"));
  EXPECT_FALSE(d.Contains(X("11")));
  for (NodeId n : d) {
    EXPECT_NE(doc_.kind(n), NodeKind::kAttribute);
  }
  // But it does include text nodes.
  bool has_text = false;
  for (NodeId n : d) has_text = has_text || doc_.IsText(n);
  EXPECT_TRUE(has_text);
}

TEST_F(AxisSemanticsTest, Ancestor) {
  EXPECT_EQ(Ids(Axis::kAncestor, X("12")),
            (std::vector<std::string>{"10", "11"}));
  NodeSet a = AxisFromNode(doc_, Axis::kAncestor, X("12"));
  EXPECT_TRUE(a.Contains(doc_.root()));
}

TEST_F(AxisSemanticsTest, AncestorOfAttributeIncludesOwner) {
  NodeId attr = doc_.AttrBegin(X("12"));
  NodeSet a = AxisFromNode(doc_, Axis::kAncestorOrSelf, attr);
  EXPECT_TRUE(a.Contains(attr));
  EXPECT_TRUE(a.Contains(X("12")));
  EXPECT_TRUE(a.Contains(X("11")));
  EXPECT_TRUE(a.Contains(X("10")));
}

TEST_F(AxisSemanticsTest, FollowingFromX14) {
  // Paper Example 9: following(x14) = {x21, x22, x23, x24}.
  EXPECT_EQ(Ids(Axis::kFollowing, X("14")),
            (std::vector<std::string>{"21", "22", "23", "24"}));
}

TEST_F(AxisSemanticsTest, PrecedingFromX23) {
  // Example 9: preceding(x23) = {x11, x12, x13, x14, x22} (elements).
  EXPECT_EQ(Ids(Axis::kPreceding, X("23")),
            (std::vector<std::string>{"11", "12", "13", "14", "22"}));
}

TEST_F(AxisSemanticsTest, PrecedingExcludesAncestors) {
  NodeSet p = AxisFromNode(doc_, Axis::kPreceding, X("23"));
  EXPECT_FALSE(p.Contains(X("21")));  // parent
  EXPECT_FALSE(p.Contains(X("10")));  // grandparent
  EXPECT_FALSE(p.Contains(doc_.root()));
}

TEST_F(AxisSemanticsTest, Siblings) {
  EXPECT_EQ(Ids(Axis::kFollowingSibling, X("12")),
            (std::vector<std::string>{"13", "14"}));
  EXPECT_EQ(Ids(Axis::kPrecedingSibling, X("14")),
            (std::vector<std::string>{"12", "13"}));
  EXPECT_TRUE(Ids(Axis::kFollowingSibling, X("24")).empty());
  // Attributes have no siblings.
  EXPECT_TRUE(
      AxisFromNode(doc_, Axis::kFollowingSibling, doc_.AttrBegin(X("11")))
          .empty());
}

TEST_F(AxisSemanticsTest, SelfAndOrSelfVariants) {
  EXPECT_EQ(AxisFromNode(doc_, Axis::kSelf, X("13")),
            NodeSet::Single(X("13")));
  NodeSet dos = AxisFromNode(doc_, Axis::kDescendantOrSelf, X("21"));
  EXPECT_TRUE(dos.Contains(X("21")));
  EXPECT_TRUE(dos.Contains(X("24")));
  NodeSet aos = AxisFromNode(doc_, Axis::kAncestorOrSelf, X("21"));
  EXPECT_TRUE(aos.Contains(X("21")));
  EXPECT_TRUE(aos.Contains(X("10")));
}

TEST_F(AxisSemanticsTest, AttributeAxis) {
  NodeSet attrs = AxisFromNode(doc_, Axis::kAttribute, X("13"));
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(doc_.content(attrs.First()), "13");
  // Attribute axis from a non-element is empty.
  EXPECT_TRUE(AxisFromNode(doc_, Axis::kAttribute, doc_.root()).empty());
}

TEST_F(AxisSemanticsTest, IdAxis) {
  // strval(x12) = "21 22" → {x21, x22}.
  NodeSet targets = AxisFromNode(doc_, Axis::kId, X("12"));
  EXPECT_EQ(targets, NodeSet({X("21"), X("22")}));
  // Inverse: following⁻¹-style lookup through Definition 1.
  NodeSet sources = EvalAxisInverse(doc_, Axis::kId, NodeSet::Single(X("21")));
  EXPECT_TRUE(sources.Contains(X("12")));
}

TEST_F(AxisSemanticsTest, MultiOriginUnionSemantics) {
  // χ(X) = ∪ χ({x}) per Definition 1.
  NodeSet x({X("12"), X("22")});
  NodeSet joint = EvalAxis(doc_, Axis::kFollowingSibling, x);
  NodeSet split = AxisFromNode(doc_, Axis::kFollowingSibling, X("12"))
                      .Union(AxisFromNode(doc_, Axis::kFollowingSibling,
                                          X("22")));
  EXPECT_EQ(joint, split);
}

TEST_F(AxisSemanticsTest, EmptyInputGivesEmptyOutput) {
  for (int i = 0; i < kNumAxes; ++i) {
    Axis axis = static_cast<Axis>(i);
    EXPECT_TRUE(EvalAxis(doc_, axis, NodeSet()).empty()) << AxisToString(axis);
    EXPECT_TRUE(EvalAxisInverse(doc_, axis, NodeSet()).empty())
        << AxisToString(axis);
  }
}

// --- Properties checked on randomized documents ------------------------------

class AxisPropertyTest : public testing::TestWithParam<uint64_t> {
 protected:
  AxisPropertyTest()
      : doc_(xml::MakeRandomDocument(40, {"a", "b", "c"}, GetParam())) {}

  Document doc_;
};

TEST_P(AxisPropertyTest, PartitionOfDocument) {
  // For every non-attribute node x: self ∪ ancestor ∪ descendant ∪
  // preceding ∪ following = all non-attribute nodes, pairwise disjoint.
  for (NodeId x = 0; x < doc_.size(); ++x) {
    if (doc_.IsAttribute(x)) continue;
    NodeSet parts[5] = {
        AxisFromNode(doc_, Axis::kSelf, x),
        AxisFromNode(doc_, Axis::kAncestor, x),
        AxisFromNode(doc_, Axis::kDescendant, x),
        AxisFromNode(doc_, Axis::kPreceding, x),
        AxisFromNode(doc_, Axis::kFollowing, x),
    };
    size_t total = 0;
    NodeSet all;
    for (const NodeSet& p : parts) {
      total += p.size();
      all = all.Union(p);
    }
    EXPECT_EQ(total, all.size()) << "overlap for node " << x;
    size_t non_attr = 0;
    for (NodeId n = 0; n < doc_.size(); ++n) {
      if (!doc_.IsAttribute(n)) ++non_attr;
    }
    EXPECT_EQ(all.size(), non_attr) << "gap for node " << x;
  }
}

/// Node sets to step from and back to: random subsets (attributes among
/// them), nested ancestor/descendant pairs, a single node and the whole
/// document. Multi-member sets make the gathering inverses meet parents
/// and targets out of document order, which they must sort and dedup.
std::vector<NodeSet> SampleSets(const Document& doc, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto any_node = [&] { return static_cast<NodeId>(rng() % doc.size()); };
  std::vector<NodeSet> sets;
  for (int i = 0; i < 3; ++i) {
    NodeSet subset;
    for (NodeId n = 0; n < doc.size(); ++n) {
      if (rng() % 4 == 0) subset.PushBackOrdered(n);
    }
    sets.push_back(std::move(subset));
  }
  std::vector<NodeId> nested;
  for (int i = 0; i < 6; ++i) {
    NodeId n = any_node();
    nested.push_back(n);
    for (uint64_t up = rng() % 4; up > 0; --up) {
      if (doc.parent(n) != xml::kInvalidNodeId) n = doc.parent(n);
    }
    nested.push_back(n);
  }
  sets.push_back(NodeSet(std::move(nested)));
  sets.push_back(NodeSet::Single(any_node()));
  sets.push_back(NodeSet::Universe(doc.size()));
  return sets;
}

/// EvalAxis(Y) = ∪ over x ∈ Y of χ({x}), and EvalAxisInverse(Y) =
/// {x | χ({x}) ∩ Y ≠ ∅} (Definition 1), for every axis and sampled Y.
void ExpectAxesMatchDefinition1(const Document& doc, uint64_t seed) {
  const std::vector<NodeSet> sets = SampleSets(doc, seed);
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    std::vector<NodeSet> from(doc.size());
    for (NodeId x = 0; x < doc.size(); ++x) {
      from[x] = AxisFromNode(doc, axis, x);
    }
    for (size_t k = 0; k < sets.size(); ++k) {
      const NodeSet& y = sets[k];
      std::vector<uint8_t> reached(doc.size(), 0);
      for (NodeId x : y) {
        for (NodeId t : from[x]) reached[t] = 1;
      }
      NodeSet image;
      NodeSet inverse;
      for (NodeId n = 0; n < doc.size(); ++n) {
        if (reached[n] != 0) image.PushBackOrdered(n);
        if (!from[n].Intersect(y).empty()) inverse.PushBackOrdered(n);
      }
      EXPECT_EQ(EvalAxis(doc, axis, y), image)
          << AxisToString(axis) << " set " << k << " seed " << seed;
      EXPECT_EQ(EvalAxisInverse(doc, axis, y), inverse)
          << AxisToString(axis) << " inverse, set " << k << " seed " << seed;
    }
  }
}

TEST_P(AxisPropertyTest, InverseMatchesDefinition1) {
  // χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}, checked exhaustively per axis.
  const NodeSet y({doc_.size() / 3, doc_.size() / 2,
                   static_cast<NodeId>(doc_.size() - 1)});
  for (int i = 0; i < kNumAxes; ++i) {
    Axis axis = static_cast<Axis>(i);
    NodeSet fast = EvalAxisInverse(doc_, axis, y);
    NodeSet slow;
    for (NodeId x = 0; x < doc_.size(); ++x) {
      if (!AxisFromNode(doc_, axis, x).Intersect(y).empty()) {
        slow.PushBackOrdered(x);
      }
    }
    EXPECT_EQ(fast, slow) << AxisToString(axis);
  }
  ExpectAxesMatchDefinition1(doc_, GetParam());
  // The auction document carries ID/IDREFS, so the id axis and its
  // inverse reach real targets.
  const Document auction = xml::MakeAuctionDocument(120, GetParam());
  ExpectAxesMatchDefinition1(auction, GetParam());
}

TEST_P(AxisPropertyTest, RelatesAgreesWithAxisFunction) {
  // AxisRelates(x, y) ⟺ y ∈ χ({x}).
  for (int i = 0; i < kNumAxes; ++i) {
    Axis axis = static_cast<Axis>(i);
    for (NodeId x = 0; x < doc_.size(); x += 3) {
      NodeSet image = AxisFromNode(doc_, axis, x);
      for (NodeId yn = 0; yn < doc_.size(); ++yn) {
        EXPECT_EQ(AxisRelates(doc_, axis, x, yn), image.Contains(yn))
            << AxisToString(axis) << " x=" << x << " y=" << yn;
      }
    }
  }
}

TEST_P(AxisPropertyTest, SymmetryPairs) {
  // y ∈ following(x) ⟺ x ∈ preceding(y), and the same for the other
  // symmetric pairs, over non-attribute nodes.
  struct Pair {
    Axis fwd, bwd;
  };
  for (Pair p : {Pair{Axis::kChild, Axis::kParent},
                 Pair{Axis::kDescendant, Axis::kAncestor},
                 Pair{Axis::kFollowing, Axis::kPreceding},
                 Pair{Axis::kFollowingSibling, Axis::kPrecedingSibling}}) {
    for (NodeId x = 0; x < doc_.size(); x += 2) {
      if (doc_.IsAttribute(x)) continue;
      for (NodeId y : AxisFromNode(doc_, p.fwd, x)) {
        EXPECT_TRUE(AxisRelates(doc_, p.bwd, y, x))
            << AxisToString(p.fwd) << " x=" << x << " y=" << y;
      }
    }
  }
}

TEST_P(AxisPropertyTest, DescendantIsTransitiveChild) {
  // descendant = child⁺, verified by fixpoint iteration from each node.
  for (NodeId x = 0; x < doc_.size(); x += 5) {
    NodeSet expect;
    NodeSet frontier = AxisFromNode(doc_, Axis::kChild, x);
    while (!frontier.empty()) {
      expect = expect.Union(frontier);
      frontier = EvalAxis(doc_, Axis::kChild, frontier);
    }
    EXPECT_EQ(AxisFromNode(doc_, Axis::kDescendant, x), expect) << x;
  }
}

TEST_P(AxisPropertyTest, RowsPartitionTheImage) {
  // For random origin sets X — the empty set, the root, attribute origins
  // — and random subsets Y of χ(X), each origin's row appended by
  // AppendAxisRow is {y ∈ Y | x χ y} in document order.
  std::mt19937_64 rng(GetParam());
  constexpr NodeId kMarker = 0xABCDu;  // rows append after existing ids
  NodeSet attributes;
  for (NodeId n = 0; n < doc_.size(); ++n) {
    if (doc_.IsAttribute(n)) attributes.PushBackOrdered(n);
  }
  ASSERT_FALSE(attributes.empty());
  for (int i = 0; i < kNumAxes; ++i) {
    const Axis axis = static_cast<Axis>(i);
    if (axis == Axis::kId) continue;
    for (int trial = 0; trial < 12; ++trial) {
      NodeSet x;
      switch (trial) {
        case 0:
          break;
        case 1:
          x = NodeSet::Single(doc_.root());
          break;
        case 2:
          x = attributes;
          break;
        case 3:
          x = NodeSet::Universe(doc_.size());
          break;
        default:
          for (NodeId n = 0; n < doc_.size(); ++n) {
            if (rng() % 4 == 0) x.PushBackOrdered(n);
          }
      }
      NodeSet y;
      for (NodeId n : EvalAxis(doc_, axis, x)) {
        if (trial % 2 == 0 || rng() % 2 == 0) y.PushBackOrdered(n);
      }
      for (NodeId origin : x) {
        std::vector<NodeId> row = {kMarker};
        AppendAxisRow(doc_, axis, origin, y.ids(), &row);
        std::vector<NodeId> expect = {kMarker};
        for (NodeId n : y) {
          if (AxisRelates(doc_, axis, origin, n)) expect.push_back(n);
        }
        EXPECT_EQ(row, expect) << AxisToString(axis) << " trial " << trial
                               << " origin " << origin;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxisPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace xpe
