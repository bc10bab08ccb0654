#include "src/axes/axis.h"

#include <algorithm>

namespace xpe {

using xml::Document;
using xml::kInvalidNodeId;
using xml::NodeId;
using xml::NodeKind;

const char* AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kId:
      return "id";
  }
  return "?";
}

std::optional<Axis> AxisFromString(std::string_view name) {
  for (int i = 0; i < kNumAxes; ++i) {
    Axis a = static_cast<Axis>(i);
    if (name == AxisToString(a)) return a;
  }
  return std::nullopt;
}

bool AxisIsReverse(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

namespace {

bool IsAttr(const Document& doc, NodeId id) {
  return doc.kind(id) == NodeKind::kAttribute;
}

/// The union of the subtree intervals [x, subtree_end(x)) of the sorted
/// origins (from x + 1 unless `include_self`). Tree intervals are nested
/// or disjoint, so one pass merges them: an origin inside the interval
/// last emitted adds nothing. Costs the origins plus the covered ids, not
/// |D|. `include_attrs` keeps attribute nodes in the result (used by
/// inverse sweeps, where covered ids are origins rather than axis
/// results).
NodeSet IntervalSweep(const Document& doc, const NodeSet& xs,
                      bool include_self, bool include_attrs) {
  NodeSet out;
  NodeId covered = 0;  // end of the interval last emitted
  for (NodeId x : xs) {
    if (x < covered) continue;
    covered = doc.subtree_end(x);
    for (NodeId id = include_self ? x : x + 1; id < covered; ++id) {
      if (include_attrs || !IsAttr(doc, id)) out.PushBackOrdered(id);
    }
  }
  return out;
}

/// Ancestors of the sorted origins (and the origins themselves when
/// `include_self`), in O(|xs| + result). Each upward walk stops at the
/// first node the previous origin's walk already produced, which is an
/// ancestor of the previous origin (or, with `include_self`, that origin
/// itself). Every node a walk adds lies after the previous origin in
/// document order, so the walks, each reversed, concatenate sorted.
NodeSet AncestorsOf(const Document& doc, const NodeSet& xs,
                    bool include_self) {
  NodeSet out;
  std::vector<NodeId> walk;
  NodeId prev = kInvalidNodeId;
  auto produced = [&](NodeId p) {
    return prev != kInvalidNodeId && (include_self ? p <= prev : p < prev) &&
           prev < doc.subtree_end(p);
  };
  for (NodeId x : xs) {
    walk.clear();
    if (include_self) walk.push_back(x);
    for (NodeId p = doc.parent(x); p != kInvalidNodeId && !produced(p);
         p = doc.parent(p)) {
      walk.push_back(p);
    }
    for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
      out.PushBackOrdered(*it);
    }
    prev = x;
  }
  return out;
}

NodeSet ChildrenOf(const Document& doc, const NodeSet& xs) {
  NodeBitmap in_x(doc.size(), xs);
  NodeSet out;
  for (NodeId y = 0; y < doc.size(); ++y) {
    if (IsAttr(doc, y)) continue;
    NodeId p = doc.parent(y);
    if (p != kInvalidNodeId && in_x.Test(p)) out.PushBackOrdered(y);
  }
  return out;
}

/// The parents of the members of `xs` that pass `keep`, gathered and
/// sorted: O(k log k) in the k kept members at worst, O(k) when the
/// parents already come in document order, as siblings' parents do.
template <typename Keep>
NodeSet ParentsOf(const Document& doc, const NodeSet& xs, Keep keep) {
  std::vector<NodeId> out;
  for (NodeId x : xs) {
    const NodeId p = doc.parent(x);
    if (p == kInvalidNodeId || !keep(x)) continue;
    if (out.empty() || out.back() != p) out.push_back(p);
  }
  return NodeSet(std::move(out));
}

/// The children and attributes of the members of `ys`: parent⁻¹(Y).
/// Gathered and sorted; the sort only reorders when members nest.
NodeSet ChildrenAndAttributesOf(const Document& doc, const NodeSet& ys) {
  std::vector<NodeId> out;
  for (NodeId y : ys) {
    // Only elements have attributes: the range is empty for other kinds.
    for (NodeId a = doc.AttrBegin(y); a < doc.AttrEnd(y); ++a) {
      out.push_back(a);
    }
    for (NodeId c = doc.first_child(y); c != kInvalidNodeId;
         c = doc.next_sibling(c)) {
      out.push_back(c);
    }
  }
  return NodeSet(std::move(out));
}

NodeSet FollowingOf(const Document& doc, const NodeSet& xs) {
  // y follows some x  iff  y >= min over x of subtree_end(x).
  if (xs.empty()) return {};
  NodeId threshold = kInvalidNodeId;
  for (NodeId x : xs) threshold = std::min(threshold, doc.subtree_end(x));
  NodeSet out;
  for (NodeId y = threshold; y < doc.size(); ++y) {
    if (!IsAttr(doc, y)) out.PushBackOrdered(y);
  }
  return out;
}

NodeSet PrecedingOf(const Document& doc, const NodeSet& xs) {
  // y precedes some x  iff  subtree_end(y) <= max(X)  (y before x and not
  // an ancestor of x <=> y's subtree closed before x).
  if (xs.empty()) return {};
  NodeId max_x = xs[xs.size() - 1];
  NodeSet out;
  for (NodeId y = 0; y < max_x; ++y) {
    if (!IsAttr(doc, y) && doc.subtree_end(y) <= max_x) out.PushBackOrdered(y);
  }
  return out;
}

NodeSet FollowingSiblingsOf(const Document& doc, const NodeSet& xs) {
  // One document-order pass: y qualifies iff its previous sibling is an
  // origin or already qualifies.
  NodeBitmap in_x(doc.size(), xs);
  NodeBitmap out(doc.size());
  NodeSet result;
  for (NodeId y = 0; y < doc.size(); ++y) {
    NodeId prev = doc.prev_sibling(y);
    if (prev == kInvalidNodeId) continue;
    if (in_x.Test(prev) || out.Test(prev)) {
      out.Set(y);
      result.PushBackOrdered(y);
    }
  }
  return result;
}

NodeSet PrecedingSiblingsOf(const Document& doc, const NodeSet& xs) {
  NodeBitmap in_x(doc.size(), xs);
  NodeBitmap out(doc.size());
  for (NodeId y = doc.size(); y-- > 0;) {
    NodeId next = doc.next_sibling(y);
    if (next == kInvalidNodeId) continue;
    if (in_x.Test(next) || out.Test(next)) out.Set(y);
  }
  return out.ToNodeSet();
}

NodeSet AttributesOf(const Document& doc, const NodeSet& xs) {
  NodeSet out;
  for (NodeId x : xs) {
    if (!doc.IsElement(x)) continue;
    for (NodeId a = doc.AttrBegin(x); a < doc.AttrEnd(x); ++a) {
      out.PushBackOrdered(a);
    }
  }
  return out;
}

/// The id-axis lists of the members of `xs` (IdAxisForward, or
/// IdAxisInverse when `inverse`), gathered and sorted, so a step costs
/// the lists it reads, not |D|.
NodeSet IdListsOf(const Document& doc, const NodeSet& xs, bool inverse) {
  std::vector<NodeId> out;
  for (NodeId x : xs) {
    const std::vector<NodeId>& ids =
        inverse ? doc.IdAxisInverse(x) : doc.IdAxisForward(x);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return NodeSet(std::move(out));
}

NodeSet NonAttributes(const Document& doc, const NodeSet& xs) {
  NodeSet out;
  for (NodeId x : xs) {
    if (!IsAttr(doc, x)) out.PushBackOrdered(x);
  }
  return out;
}

}  // namespace

NodeSet EvalAxis(const Document& doc, Axis axis, const NodeSet& x) {
  switch (axis) {
    case Axis::kSelf:
      return x;
    case Axis::kChild:
      return ChildrenOf(doc, x);
    case Axis::kParent:
      return ParentsOf(doc, x, [](NodeId) { return true; });
    case Axis::kDescendant:
      return IntervalSweep(doc, x, /*include_self=*/false,
                           /*include_attrs=*/false);
    case Axis::kAncestor:
      return AncestorsOf(doc, x, /*include_self=*/false);
    case Axis::kDescendantOrSelf: {
      // Self members survive even when they are attributes.
      NodeSet sweep = IntervalSweep(doc, x, /*include_self=*/true,
                                    /*include_attrs=*/false);
      return sweep.Union(x);
    }
    case Axis::kAncestorOrSelf:
      return AncestorsOf(doc, x, /*include_self=*/true);
    case Axis::kFollowing:
      return FollowingOf(doc, x);
    case Axis::kPreceding:
      return PrecedingOf(doc, x);
    case Axis::kFollowingSibling:
      return FollowingSiblingsOf(doc, x);
    case Axis::kPrecedingSibling:
      return PrecedingSiblingsOf(doc, x);
    case Axis::kAttribute:
      return AttributesOf(doc, x);
    case Axis::kId:
      return IdListsOf(doc, x, /*inverse=*/false);
  }
  return {};
}

NodeSet EvalAxisInverse(const Document& doc, Axis axis, const NodeSet& y) {
  switch (axis) {
    case Axis::kSelf:
      return y;
    case Axis::kChild:
      // x has a child in Y  <=>  x is the parent of a non-attribute member.
      return ParentsOf(doc, y, [&](NodeId n) { return !IsAttr(doc, n); });
    case Axis::kParent:
      // parent(x) ∈ Y: children and attributes of Y's members.
      return ChildrenAndAttributesOf(doc, y);
    case Axis::kDescendant:
      return AncestorsOf(doc, NonAttributes(doc, y), /*include_self=*/false);
    case Axis::kAncestor:
      // Some proper ancestor of x lies in Y: everything strictly inside a
      // Y-subtree, attributes included (their owner chain counts).
      return IntervalSweep(doc, NonAttributes(doc, y), /*include_self=*/false,
                           /*include_attrs=*/true);
    case Axis::kDescendantOrSelf:
      return y.Union(
          AncestorsOf(doc, NonAttributes(doc, y), /*include_self=*/false));
    case Axis::kAncestorOrSelf:
      return y.Union(IntervalSweep(doc, NonAttributes(doc, y),
                                   /*include_self=*/false,
                                   /*include_attrs=*/true));
    case Axis::kFollowing: {
      // x reaches Y via following  iff  subtree_end(x) <= max non-attr Y.
      NodeSet targets = NonAttributes(doc, y);
      if (targets.empty()) return {};
      NodeId max_y = targets[targets.size() - 1];
      NodeSet out;
      for (NodeId x = 0; x < max_y; ++x) {
        if (doc.subtree_end(x) <= max_y) out.PushBackOrdered(x);
      }
      return out;
    }
    case Axis::kPreceding: {
      // x reaches Y via preceding iff some y with subtree_end(y) <= x, i.e.
      // x >= min over Y of subtree_end(y).
      NodeSet targets = NonAttributes(doc, y);
      if (targets.empty()) return {};
      NodeId threshold = kInvalidNodeId;
      for (NodeId t : targets) {
        threshold = std::min(threshold, doc.subtree_end(t));
      }
      NodeSet out;
      for (NodeId x = threshold; x < doc.size(); ++x) out.PushBackOrdered(x);
      return out;
    }
    case Axis::kFollowingSibling:
      return PrecedingSiblingsOf(doc, y);
    case Axis::kPrecedingSibling:
      return FollowingSiblingsOf(doc, y);
    case Axis::kAttribute:
      // The owners of the attribute members (already in document order).
      return ParentsOf(doc, y, [&](NodeId n) { return IsAttr(doc, n); });
    case Axis::kId:
      return IdListsOf(doc, y, /*inverse=*/true);
  }
  return {};
}

NodeSet AxisFromNode(const Document& doc, Axis axis, NodeId x) {
  return EvalAxis(doc, axis, NodeSet::Single(x));
}

bool AxisRelates(const Document& doc, Axis axis, NodeId x, NodeId y) {
  switch (axis) {
    case Axis::kSelf:
      return x == y;
    case Axis::kChild:
      return !IsAttr(doc, y) && doc.parent(y) == x;
    case Axis::kParent:
      return doc.parent(x) == y;
    case Axis::kDescendant:
      return !IsAttr(doc, y) && x < y && y < doc.subtree_end(x);
    case Axis::kAncestor:
      return y < x && x < doc.subtree_end(y);
    case Axis::kDescendantOrSelf:
      return x == y || AxisRelates(doc, Axis::kDescendant, x, y);
    case Axis::kAncestorOrSelf:
      return x == y || AxisRelates(doc, Axis::kAncestor, x, y);
    case Axis::kFollowing:
      return !IsAttr(doc, y) && y >= doc.subtree_end(x);
    case Axis::kPreceding:
      return !IsAttr(doc, y) && doc.subtree_end(y) <= x;
    case Axis::kFollowingSibling:
      return !IsAttr(doc, x) && !IsAttr(doc, y) && y > x &&
             doc.parent(x) == doc.parent(y) &&
             doc.parent(x) != kInvalidNodeId;
    case Axis::kPrecedingSibling:
      return AxisRelates(doc, Axis::kFollowingSibling, y, x);
    case Axis::kAttribute:
      return IsAttr(doc, y) && doc.parent(y) == x;
    case Axis::kId: {
      const std::vector<NodeId>& targets = doc.IdAxisForward(x);
      return std::binary_search(targets.begin(), targets.end(), y);
    }
  }
  return false;
}

void AppendAxisRow(const Document& doc, Axis axis, NodeId x,
                   std::span<const NodeId> ys, std::vector<NodeId>* out) {
  // ys ∩ [lo, hi), filtered by the relation.
  auto scan = [&](NodeId lo, NodeId hi) {
    for (auto it = std::lower_bound(ys.begin(), ys.end(), lo);
         it != ys.end() && *it < hi; ++it) {
      if (AxisRelates(doc, axis, x, *it)) out->push_back(*it);
    }
  };
  auto probe = [&](NodeId y) {
    if (std::binary_search(ys.begin(), ys.end(), y)) out->push_back(y);
  };
  switch (axis) {
    case Axis::kSelf:
      probe(x);
      return;
    case Axis::kParent:
      if (doc.parent(x) != kInvalidNodeId) probe(doc.parent(x));
      return;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // The walk meets x and its ancestors in reverse document order.
      const size_t begin = out->size();
      if (axis == Axis::kAncestorOrSelf) probe(x);
      for (NodeId p = doc.parent(x); p != kInvalidNodeId; p = doc.parent(p)) {
        probe(p);
      }
      std::reverse(out->begin() + static_cast<ptrdiff_t>(begin), out->end());
      return;
    }
    case Axis::kChild:
    case Axis::kDescendant:
      scan(x + 1, doc.subtree_end(x));
      return;
    case Axis::kDescendantOrSelf:
      scan(x, doc.subtree_end(x));
      return;
    case Axis::kFollowing:
      scan(doc.subtree_end(x), doc.size());
      return;
    case Axis::kPreceding:
      scan(0, x);
      return;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      const NodeId p = doc.parent(x);
      if (p == kInvalidNodeId || IsAttr(doc, x)) return;
      if (axis == Axis::kFollowingSibling) {
        scan(doc.subtree_end(x), doc.subtree_end(p));
      } else {
        scan(p + 1, x);
      }
      return;
    }
    case Axis::kAttribute:
      scan(doc.AttrBegin(x), doc.AttrEnd(x));
      return;
    case Axis::kId:
      // deref_ids results are sorted: probing them keeps document order.
      for (NodeId t : doc.IdAxisForward(x)) probe(t);
      return;
  }
}

}  // namespace xpe
