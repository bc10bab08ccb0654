#include "src/index/step_index.h"

#include <algorithm>
#include <bit>

#include "src/core/step_common.h"
#include "src/succinct/ef_postings.h"

namespace xpe::index {

namespace {

using xml::Document;
using xml::kNoString;
using xml::NodeId;
using xpath::NodeTest;

/// The two postings sequence shapes the kernels are instantiated over.
/// Both expose the same five operations; the flat one compiles to the
/// exact span code the pre-tier kernels were, the dense one decodes
/// Elias-Fano on the fly (Scan is cursor-driven, O(1) amortized per
/// element — no per-element select).
struct FlatSeq {
  std::span<const NodeId> v;

  size_t size() const { return v.size(); }
  NodeId Get(size_t k) const { return v[k]; }
  size_t LowerBound(NodeId value) const {
    return static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(), value) - v.begin());
  }
  size_t LowerBoundFrom(size_t from, NodeId value) const {
    return static_cast<size_t>(
        std::lower_bound(v.begin() + from, v.end(), value) - v.begin());
  }
  template <typename F>
  bool Scan(size_t k0, size_t k1, F&& f) const {
    for (size_t k = k0; k < k1; ++k) {
      if (!f(v[k])) return false;
    }
    return true;
  }
};

struct DenseSeq {
  const succinct::EliasFanoList* list;

  size_t size() const { return list->size(); }
  NodeId Get(size_t k) const { return list->Get(k); }
  size_t LowerBound(NodeId value) const { return list->LowerBound(value); }
  size_t LowerBoundFrom(size_t from, NodeId value) const {
    return list->LowerBoundFrom(from, value);
  }
  template <typename F>
  bool Scan(size_t k0, size_t k1, F&& f) const {
    return list->Scan(k0, k1, f);
  }
};

/// The kernels append into caller-owned buffers (typically EvalWorkspace
/// scratch), so per-origin loops in the engines stay allocation-free;
/// this tail-dedup push is the vector counterpart of
/// NodeSet::PushBackOrdered.
inline void PushOrdered(std::vector<NodeId>* out, NodeId id) {
  if (!out->empty() && out->back() == id) return;
  out->push_back(id);
}

/// True once `out` holds `limit` nodes — every kernel below emits in
/// ascending document order, so reaching the limit means the prefix is
/// final and the remaining postings walk can be skipped entirely.
inline bool AtLimit(const std::vector<NodeId>* out, uint64_t limit) {
  return out->size() >= limit;
}

/// Appends the postings members inside [lo, hi) — a binary-searched
/// contiguous range, since postings are sorted by NodeId.
template <typename Seq>
void AppendRange(const Seq& postings, NodeId lo, NodeId hi,
                 std::vector<NodeId>* out, uint64_t limit) {
  const size_t k0 = postings.LowerBound(lo);
  const size_t k1 = postings.LowerBoundFrom(k0, hi);
  postings.Scan(k0, k1, [&](NodeId id) {
    if (AtLimit(out, limit)) return false;
    PushOrdered(out, id);
    return true;
  });
}

/// Sorted intersection of postings with a flat sorted list; gallops
/// (binary probes from the smaller side) when one input dwarfs the
/// other.
template <typename Seq>
void IntersectSortedInto(const Seq& postings, std::span<const NodeId> x,
                         std::vector<NodeId>* out, uint64_t limit) {
  if (postings.size() * 16 < x.size()) {
    postings.Scan(0, postings.size(), [&](NodeId id) {
      if (AtLimit(out, limit)) return false;
      if (std::binary_search(x.begin(), x.end(), id)) PushOrdered(out, id);
      return true;
    });
    return;
  }
  if (x.size() * 16 < postings.size()) {
    for (NodeId id : x) {
      if (AtLimit(out, limit)) return;
      const size_t k = postings.LowerBound(id);
      if (k < postings.size() && postings.Get(k) == id) PushOrdered(out, id);
    }
    return;
  }
  size_t i = 0;
  postings.Scan(0, postings.size(), [&](NodeId id) {
    if (AtLimit(out, limit)) return false;
    while (i < x.size() && x[i] < id) ++i;
    if (i == x.size()) return false;
    if (x[i] == id) {
      PushOrdered(out, id);
      ++i;
    }
    return true;
  });
}

/// True when probing `candidates` postings with an O(log |X|) binary
/// search each would cost more than the O(|D|) scan the kernel replaces
/// (see IndexedStepWorthwhile). Keeps dense-postings / broad-frontier
/// shapes (e.g. `child::*` from a near-universe set) from regressing by
/// the log factor while preserving the selective-name wins.
bool ScanIsCheaper(size_t candidates, size_t origins, NodeId doc_size) {
  return candidates * std::bit_width(origins + 1) > doc_size;
}

/// The postings subrange a child step inspects: candidates inside the
/// covering interval of X's subtrees.
template <typename Seq>
std::pair<size_t, size_t> ChildWindow(const Document& doc,
                                      const Seq& postings,
                                      std::span<const NodeId> x) {
  NodeId hi = 0;
  for (NodeId origin : x) hi = std::max(hi, doc.subtree_end(origin));
  const size_t begin = postings.LowerBound(x.front() + 1);
  return {begin, postings.LowerBoundFrom(begin, hi)};
}

template <typename Seq>
void ChildStep(const Document& doc, const Seq& postings,
               std::span<const NodeId> x, std::vector<NodeId>* out,
               uint64_t limit) {
  // One merge pass over the window and X. `cursor` is the last origin
  // before the candidate c, and no origin lies between it and c, so
  // parent(c) is an origin only if it is the cursor, or if it precedes
  // the cursor and contains it. The second case needs an origin nested
  // inside an earlier one; only then does c pay a binary search.
  auto [begin, end] = ChildWindow(doc, postings, x);
  size_t cursor = 0;
  NodeId covered_end = doc.subtree_end(x[0]);
  bool nested = false;
  postings.Scan(begin, end, [&](NodeId c) {
    if (AtLimit(out, limit)) return false;
    while (cursor + 1 < x.size() && x[cursor + 1] < c) {
      ++cursor;
      nested = nested || x[cursor] < covered_end;
      covered_end = std::max(covered_end, doc.subtree_end(x[cursor]));
    }
    const NodeId parent = doc.parent(c);
    if (parent == x[cursor] ||
        (nested && parent < x[cursor] &&
         std::binary_search(x.begin(), x.begin() + cursor, parent))) {
      PushOrdered(out, c);
    }
    return true;
  });
}

template <typename Seq>
void DescendantStep(const Document& doc, const Seq& postings,
                    std::span<const NodeId> x, bool or_self,
                    std::vector<NodeId>* out, uint64_t limit) {
  // The maximal subtree intervals of X are disjoint and ascending (nested
  // origins are subsumed), so one merge pass stays in document order.
  NodeId covered_end = 0;
  for (NodeId origin : x) {
    if (AtLimit(out, limit)) return;
    if (origin < covered_end) continue;  // inside the previous interval
    covered_end = doc.subtree_end(origin);
    AppendRange(postings, or_self ? origin : origin + 1, covered_end, out,
                limit);
  }
}

template <typename Seq>
void AncestorStep(const Document& doc, const Seq& postings,
                  std::span<const NodeId> x, bool or_self,
                  std::vector<NodeId>* out, uint64_t limit) {
  // e is a proper ancestor of some x iff the first origin after e still
  // lies inside e's subtree (e < x < subtree_end(e)).
  postings.Scan(0, postings.size(), [&](NodeId e) {
    if (AtLimit(out, limit)) return false;
    auto it = std::upper_bound(x.begin(), x.end(), e);
    const bool proper = it != x.end() && *it < doc.subtree_end(e);
    if (proper || (or_self && std::binary_search(x.begin(), x.end(), e))) {
      PushOrdered(out, e);
    }
    return true;
  });
}

template <typename Seq>
void AttributeStep(const Document& doc, const Seq& postings,
                   std::span<const NodeId> x, std::vector<NodeId>* out,
                   uint64_t limit) {
  // Attribute slots [x+1, AttrEnd(x)) of distinct elements are disjoint
  // and ascending, so per-origin range scans preserve document order.
  for (NodeId origin : x) {
    if (AtLimit(out, limit)) return;
    if (!doc.IsElement(origin)) continue;
    AppendRange(postings, doc.AttrBegin(origin), doc.AttrEnd(origin), out,
                limit);
  }
}

void ParentStep(const Document& doc, Axis axis, const NodeTest& test,
                std::span<const NodeId> x, std::vector<NodeId>* out,
                uint64_t limit) {
  for (NodeId origin : x) {
    NodeId p = doc.parent(origin);
    if (p != xml::kInvalidNodeId && MatchesNodeTest(doc, axis, test, p)) {
      out->push_back(p);
    }
  }
  SortUnique(out);  // parents of distinct origins may repeat or invert
  // Emission is not ordered, so the limit applies after the sort; the
  // kernel is output-bounded by |x| regardless.
  if (limit != kNoNodeLimit && out->size() > limit) out->resize(limit);
}

template <typename Seq>
void FollowingStep(const Document& doc, const Seq& postings,
                   std::span<const NodeId> x, std::vector<NodeId>* out,
                   uint64_t limit) {
  // y follows some x iff y >= min over X of subtree_end(x): a postings
  // suffix.
  NodeId threshold = xml::kInvalidNodeId;
  for (NodeId origin : x) {
    threshold = std::min(threshold, doc.subtree_end(origin));
  }
  AppendRange(postings, threshold, static_cast<NodeId>(doc.size()), out,
              limit);
}

template <typename Seq>
void PrecedingStep(const Document& doc, const Seq& postings,
                   std::span<const NodeId> x, std::vector<NodeId>* out,
                   uint64_t limit) {
  // y precedes some x iff subtree_end(y) <= max(X): a postings prefix
  // filtered by the subtree_end test (ancestors of max(X) fail it).
  const NodeId max_x = x.back();
  const size_t end = postings.LowerBound(max_x);
  postings.Scan(0, end, [&](NodeId id) {
    if (AtLimit(out, limit)) return false;
    if (doc.subtree_end(id) <= max_x) PushOrdered(out, id);
    return true;
  });
}

/// The tier-shared step dispatch: one instantiation per Seq shape,
/// selected once per call in IndexedStepOverPostingsInto.
template <typename Seq>
void StepOverSeqInto(const Document& doc, const Seq& postings, Axis axis,
                     const NodeTest& test, std::span<const NodeId> x,
                     std::vector<NodeId>* out, uint64_t limit) {
  switch (axis) {
    case Axis::kSelf:
      IntersectSortedInto(postings, x, out, limit);
      return;
    case Axis::kChild:
      ChildStep(doc, postings, x, out, limit);
      return;
    case Axis::kParent:
      ParentStep(doc, axis, test, x, out, limit);
      return;
    case Axis::kDescendant:
      DescendantStep(doc, postings, x, /*or_self=*/false, out, limit);
      return;
    case Axis::kDescendantOrSelf:
      DescendantStep(doc, postings, x, /*or_self=*/true, out, limit);
      return;
    case Axis::kAncestor:
      AncestorStep(doc, postings, x, /*or_self=*/false, out, limit);
      return;
    case Axis::kAncestorOrSelf:
      AncestorStep(doc, postings, x, /*or_self=*/true, out, limit);
      return;
    case Axis::kFollowing:
      FollowingStep(doc, postings, x, out, limit);
      return;
    case Axis::kPreceding:
      PrecedingStep(doc, postings, x, out, limit);
      return;
    case Axis::kAttribute:
      AttributeStep(doc, postings, x, out, limit);
      return;
    default: {
      const NodeSet scan = ApplyNodeTest(
          doc, axis, test, EvalAxis(doc, axis, NodeSet::FromSorted(x)));
      out->assign(scan.begin(), scan.end());
      if (limit != kNoNodeLimit && out->size() > limit) out->resize(limit);
      return;
    }
  }
}

}  // namespace

bool NodeTestIndexable(const xpath::NodeTest& test) {
  return test.kind == NodeTest::Kind::kName ||
         test.kind == NodeTest::Kind::kAny;
}

PostingsView StepPostings(const Document& doc, const IndexView& index,
                          Axis axis, const NodeTest& test) {
  const bool attr = axis == Axis::kAttribute;
  if (test.kind == NodeTest::Kind::kAny) {
    return attr ? index.all_attributes() : index.all_elements();
  }
  const uint32_t name_id = doc.LookupNameId(test.name);
  if (name_id == kNoString) return PostingsView();
  return attr ? index.AttributesNamed(name_id) : index.ElementsNamed(name_id);
}

bool IndexedStepWorthwhile(const Document& doc, const PostingsView& postings,
                           Axis axis, std::span<const NodeId> x) {
  if (x.empty() || postings.empty()) return true;  // trivially cheap
  switch (axis) {
    case Axis::kChild: {
      // Window bounds are two binary searches on either tier; the
      // verdict depends on sizes only, so both tiers agree.
      NodeId hi = 0;
      for (NodeId origin : x) hi = std::max(hi, doc.subtree_end(origin));
      const size_t begin = postings.LowerBound(x.front() + 1);
      const size_t end = postings.LowerBound(hi);
      return !ScanIsCheaper(end - begin, x.size(), doc.size());
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      return !ScanIsCheaper(postings.size(), x.size(), doc.size());
    default:
      // Every other kernel is bounded by its output plus logarithmic
      // probes, never by the postings size alone.
      return true;
  }
}

void IndexedStepOverPostingsInto(const Document& doc,
                                 const PostingsView& postings, Axis axis,
                                 const NodeTest& test,
                                 std::span<const NodeId> x,
                                 std::vector<NodeId>* out, uint64_t limit) {
  out->clear();
  if (x.empty() || postings.empty() || limit == 0) return;
  if (postings.is_flat()) {
    StepOverSeqInto(doc, FlatSeq{postings.flat()}, axis, test, x, out, limit);
  } else {
    StepOverSeqInto(doc, DenseSeq{postings.dense()}, axis, test, x, out,
                    limit);
  }
}

void IndexedApplyNodeTestInto(const Document& doc, const IndexView& index,
                              Axis axis, const xpath::NodeTest& test,
                              std::span<const NodeId> nodes,
                              std::vector<NodeId>* out) {
  if (!NodeTestIndexable(test)) {
    ApplyNodeTestInto(doc, axis, test, nodes, out);
    return;
  }
  const PostingsView postings = StepPostings(doc, index, axis, test);
  out->clear();
  // The frequent backward-propagation case: testing against the universe
  // selects exactly the postings.
  if (nodes.size() == doc.size()) {
    out->resize(postings.size());
    postings.Decode(0, postings.size(), out->data());
    return;
  }
  if (postings.is_flat()) {
    IntersectSortedInto(FlatSeq{postings.flat()}, nodes, out, kNoNodeLimit);
  } else {
    IntersectSortedInto(DenseSeq{postings.dense()}, nodes, out, kNoNodeLimit);
  }
}

}  // namespace xpe::index
