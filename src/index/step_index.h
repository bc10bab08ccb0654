#ifndef XPE_INDEX_STEP_INDEX_H_
#define XPE_INDEX_STEP_INDEX_H_

#include <span>

#include "src/axes/axis.h"
#include "src/index/document_index.h"
#include "src/index/index_tier.h"
#include "src/xpath/ast.h"

namespace xpe::index {

/// Index-accelerated location-step kernels. Each function is semantically
/// identical to the O(|D|) scan it replaces (same node set, same document
/// order); they differ only in cost, which is driven by the postings size
/// of the tested name — sublinear in |D| whenever the name is selective.
///
/// The kernels are tier-generic: postings arrive as a PostingsView
/// (index_tier.h), which is either a flat span over the DocumentIndex
/// vectors (kHot) or an Elias-Fano list from the succinct build
/// (kDense). Dispatch happens once per call, and the per-tier loops are
/// instantiated from one template — the hot instantiation compiles to
/// the same array code as before the tier existed, which is what the
/// bench_index gate measures.
///
/// Eligibility is a static property of the (axis, node-test) pair and is
/// decided at compile time by xpath::StepIsIndexEligible (see
/// relevance.h), which annotates AstNode::index_eligible; StepKernel
/// (core/step_common.h) consults that flag plus EvalOptions::use_index
/// before resolving postings here, and IndexedStepWorthwhile before
/// each call, so the kernels below only ever see eligible steps worth
/// answering from postings.
///
/// IndexedStepOverPostingsInto computes χ(X) ∩ T(t), equivalent to
/// ApplyNodeTest(doc, axis, test, EvalAxis(doc, axis, x)). The workhorse
/// cases (P = postings of the tested name, X = |x|):
///  - descendant/descendant-or-self: binary-search merge of P against the
///    disjoint maximal subtree intervals [x, subtree_end(x)) of X —
///    O(X + occ + log P);
///  - child: one merge pass over the covering interval's postings and X,
///    O(window + X) on disjoint origins (a candidate whose parent
///    precedes the last origin before it pays an O(log X) probe, which
///    only nested origins need);
///  - ancestor/ancestor-or-self: one O(log X) interval probe per posting,
///    O(P log X);
///  - attribute: per-origin binary search of the attribute postings;
///  - following/preceding: postings suffix / prefix via the subtree_end
///    threshold arguments of §2.1's document-order characterization;
///  - self/parent: O(X log P) and O(X log X) probes.

/// The postings list a step `axis::test` consults: the name's element or
/// attribute postings (attribute axis → attributes), the
/// all-elements/all-attributes list for `*`, the empty list for names
/// absent from the document. Per-origin loops resolve this once per step
/// and call IndexedStepOverPostingsInto, avoiding one name lookup per
/// origin.
PostingsView StepPostings(const xml::Document& doc, const IndexView& index,
                          Axis axis, const xpath::NodeTest& test);

/// χ(X) ∩ T(t) over postings already resolved by StepPostings, into a
/// caller-owned buffer (cleared first; typically EvalWorkspace scratch).
/// (axis, test) must be index-eligible (xpath::StepIsIndexEligible). `x`
/// is any sorted duplicate-free id sequence (NodeSet::ids(), a NodeTable
/// row, a single-origin span).
///
/// `limit` bounds the output to its first `limit` nodes. Every kernel
/// emits in ascending document order, so stopping after the limit-th
/// emission yields exactly the document-order prefix of the full image —
/// this is where kFirst/kExists/kLimit result modes stop the postings
/// walk instead of truncating afterwards. (The parent kernel sorts at
/// the end and therefore truncates post-hoc; it is output-bounded by
/// |x| anyway.)
void IndexedStepOverPostingsInto(const xml::Document& doc,
                                 const PostingsView& postings, Axis axis,
                                 const xpath::NodeTest& test,
                                 std::span<const xml::NodeId> x,
                                 std::vector<xml::NodeId>* out,
                                 uint64_t limit = kNoNodeLimit);

/// The cost gate StepKernel consults before each indexed call: false
/// when the candidate-postings × log|X| estimate for `axis` exceeds the
/// O(|D|) scan (child/ancestor over dense postings and broad frontiers,
/// e.g. `child::*` from a near-universe set), so the indexed path is
/// never asymptotically worse; true for every other axis. The verdict is
/// driven by sizes only, so it is identical across tiers — the stats
/// parity the differential suite asserts depends on this.
bool IndexedStepWorthwhile(const xml::Document& doc,
                           const PostingsView& postings, Axis axis,
                           std::span<const xml::NodeId> x);

/// True iff the node test alone (any axis) can be answered from postings:
/// name tests and `*`. Kind tests (text(), comment(), ...) and node() are
/// not postings-backed.
bool NodeTestIndexable(const xpath::NodeTest& test);

/// T(t) ∩ nodes — equivalent to ApplyNodeTest(doc, axis, test, nodes) but
/// computed as a sorted-list intersection of the name's postings with
/// `nodes` (galloping when the sizes are skewed) instead of a per-node
/// string comparison scan. Used by the backward-propagation passes, where
/// `nodes` is often the universe and the intersection is just the
/// postings list itself.
void IndexedApplyNodeTestInto(const xml::Document& doc,
                              const IndexView& index, Axis axis,
                              const xpath::NodeTest& test,
                              std::span<const xml::NodeId> nodes,
                              std::vector<xml::NodeId>* out);

}  // namespace xpe::index

#endif  // XPE_INDEX_STEP_INDEX_H_
