#ifndef XPE_AXES_AXIS_H_
#define XPE_AXES_AXIS_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/axes/node_set.h"
#include "src/xml/document.h"

namespace xpe {

/// The XPath 1.0 axes implemented by xpe: the eleven tree axes of the
/// paper's §2.1, the attribute axis (which the paper omits only for space),
/// and the paper's id-"axis" of §4 (`id(id(π))` rewritten to `π/id/id`).
/// The namespace axis is out of scope, as in the paper.
enum class Axis : uint8_t {
  kSelf = 0,
  kChild,
  kParent,
  kDescendant,
  kAncestor,
  kDescendantOrSelf,
  kAncestorOrSelf,
  kFollowing,
  kPreceding,
  kFollowingSibling,
  kPrecedingSibling,
  kAttribute,
  kId,
};

inline constexpr int kNumAxes = 13;

/// XPath spelling of the axis ("descendant-or-self", ...; kId → "id").
const char* AxisToString(Axis axis);

/// Parses an XPath axis name; std::nullopt for unknown names ("namespace"
/// included, which callers should turn into a kUnsupported Status).
std::optional<Axis> AxisFromString(std::string_view name);

/// True for the reverse axes (parent, ancestor, ancestor-or-self,
/// preceding, preceding-sibling): their <doc,χ step order (paper §2.1) is
/// reverse document order, which is how idxχ positions are counted.
bool AxisIsReverse(Axis axis);

/// The paper's χ(X) of Definition 1, computed in O(|D| + |X|) (the lemma
/// from [11] restated in §2.1). Result is in document order. Most axes
/// cost only what X reaches: self, parent, ancestor(-or-self),
/// descendant(-or-self), attribute and id take O(|X| + |χ(X)|), plus a
/// sort of the gathered parents or id targets when they arrive out of
/// document order; following and preceding scan only the id range their
/// result lies in. Child and the sibling axes scan the document.
NodeSet EvalAxis(const xml::Document& doc, Axis axis, const NodeSet& x);

/// The paper's χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}, within O(|D| + |Y|). This
/// is the engine of §4's backward propagation (propagate_path_backwards),
/// which therefore costs what it propagates: the inverses of child,
/// parent, attribute, id, ancestor(-or-self) and descendant(-or-self)
/// gather and sort only what Y reaches, with no |D| bitmap or scan;
/// following and preceding scan the id range their result lies in, and
/// only the sibling inverses scan the document.
NodeSet EvalAxisInverse(const xml::Document& doc, Axis axis,
                        const NodeSet& y);

/// χ({x}) for a single origin; convenience over EvalAxis.
NodeSet AxisFromNode(const xml::Document& doc, Axis axis, xml::NodeId x);

/// O(1) membership test of the axis relation: true iff x χ y.
/// (For kId: O(log k) in the node's reference count.)
bool AxisRelates(const xml::Document& doc, Axis axis, xml::NodeId x,
                 xml::NodeId y);

/// One origin's row of the pair relation {(x, y) | y ∈ Y, x χ y}: appends
/// the members y of `ys` (sorted, duplicate-free) with x χ y to `out`, in
/// document order. Only the slice of `ys` the axis can reach from x is
/// scanned — found by binary search on x's subtree interval, its
/// parent's interval or its attribute range — with AxisRelates as the
/// exact filter; self, parent, ancestor(-or-self) and id probe their few
/// candidates (x, the parent chain, x's id targets) by binary search. The
/// cost is O(log |Y| + slice), or O(depth · log |Y|), instead of O(|Y|),
/// and nothing is allocated beyond the growth of `out`.
void AppendAxisRow(const xml::Document& doc, Axis axis, xml::NodeId x,
                   std::span<const xml::NodeId> ys,
                   std::vector<xml::NodeId>* out);

}  // namespace xpe

#endif  // XPE_AXES_AXIS_H_
