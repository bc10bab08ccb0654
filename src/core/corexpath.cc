// The linear-time Core XPath engine ([11], recalled as Definition 12 /
// Theorem 13). Every operation is a constant number of set passes per
// query node, none over O(|D|): axis images for the steps, inverse-axis
// backward propagation for path predicates, and set algebra for and/or/
// not. Most axis passes, the inverse ones of the backward propagation
// included, cost only what their input reaches (see axis.h).
//
// All intermediate sets live in pooled EvalWorkspace scratch buffers, so
// a reused evaluator session runs the per-step loops without heap
// allocation (the axis scans still materialize their image internally).
//
// Two per-call contracts from EvalOptions are enforced here:
//  - budget: one unit is charged per (location step, frontier node)
//    pair — the linear engine's analog of the polynomial engines'
//    single-context evaluations — and exceeding it aborts with
//    kResourceExhausted;
//  - result: the node limit of the early-terminating modes
//    (ResultSpec::node_limit) bounds the outermost path's final step,
//    so Exists()/First()/Limit(n) stop the postings walk after the
//    limit-th match instead of materializing the full result.

#include <algorithm>
#include <numeric>

#include "src/core/engine_internal.h"
#include "src/core/step_common.h"

namespace xpe::internal {

namespace {

using xml::Document;
using xml::NodeId;
using xpath::AstId;
using xpath::AstNode;
using xpath::BinOp;
using xpath::ExprKind;
using xpath::FunctionId;
using xpath::QueryTree;

class CoreXPathEvaluator {
 public:
  CoreXPathEvaluator(EvalWorkspace& ws, const QueryTree& tree,
                     StepContext& sc)
      : ws_(ws), tree_(tree), sc_(sc), doc_(sc.doc) {}

  /// Forward evaluation of a Core XPath location path from start set `x`
  /// into `out` (a pooled scratch buffer). `limit` is the document-order
  /// prefix bound of the early-terminating result modes; it constrains
  /// the final step only (earlier frontiers must stay complete for
  /// correctness) and is kNoNodeLimit for full evaluation.
  Status EvalPath(AstId id, std::span<const NodeId> x,
                  std::vector<NodeId>* out, uint64_t limit) {
    const AstNode& n = tree_.node(id);
    EvalWorkspace::ScratchIds current = ws_.AcquireIds();
    if (n.absolute) {
      current->push_back(doc_.root());
    } else {
      current->assign(x.begin(), x.end());
    }
    EvalWorkspace::ScratchIds candidates = ws_.AcquireIds();
    EvalWorkspace::ScratchIds sel = ws_.AcquireIds();
    EvalWorkspace::ScratchIds tmp = ws_.AcquireIds();

    const size_t k = n.children.size();
    for (size_t s = 0; s < k; ++s) {
      const AstNode& step = tree_.node(n.children[s]);
      const bool is_last = s + 1 == k;
      XPE_RETURN_IF_ERROR(sc_.Charge(current->size()));
      // A predicate-free final step can stop at the limit-th emission;
      // with predicates the candidates must be filtered first.
      const uint64_t step_limit =
          is_last && step.children.empty() ? limit : kNoNodeLimit;
      StepKernel(sc_, step, n.children[s])
          .EvalInto(*current, candidates.get(), step_limit);
      for (AstId pred : step.children) {
        XPE_RETURN_IF_ERROR(PredSet(pred, *candidates, sel.get()));
        IntersectInto(*candidates, *sel, tmp.get());
        std::swap(*candidates, *tmp);
      }
      if (is_last && limit != kNoNodeLimit && candidates->size() > limit) {
        candidates->resize(limit);
      }
      std::swap(*current, *candidates);
      sc_.stats().AddCells(current->size());
      if (current->empty()) break;  // nothing downstream
    }
    std::swap(*out, *current);
    return Status::OK();
  }

  /// The set of nodes in `universe` satisfying a Core XPath predicate,
  /// written into `out`.
  Status PredSet(AstId id, std::span<const NodeId> universe,
                 std::vector<NodeId>* out) {
    const AstNode& n = tree_.node(id);
    switch (n.kind) {
      case ExprKind::kBinaryOp: {
        EvalWorkspace::ScratchIds lhs = ws_.AcquireIds();
        EvalWorkspace::ScratchIds rhs = ws_.AcquireIds();
        XPE_RETURN_IF_ERROR(PredSet(n.children[0], universe, lhs.get()));
        XPE_RETURN_IF_ERROR(PredSet(n.children[1], universe, rhs.get()));
        if (n.op == BinOp::kAnd) {
          IntersectInto(*lhs, *rhs, out);
        } else {
          // kOr (ClassifyFragments admits nothing else).
          UnionInto(*lhs, *rhs, out);
        }
        return Status::OK();
      }
      case ExprKind::kFunctionCall: {
        EvalWorkspace::ScratchIds inner = ws_.AcquireIds();
        if (n.fn == FunctionId::kNot) {
          XPE_RETURN_IF_ERROR(PredSet(n.children[0], universe, inner.get()));
          DifferenceInto(universe, *inner, out);
          return Status::OK();
        }
        // boolean(π): nodes from which π selects at least one node,
        // computed by backward propagation — never by evaluating π from
        // every node separately.
        XPE_RETURN_IF_ERROR(PathOrigins(n.children[0], inner.get()));
        IntersectInto(*inner, universe, out);
        return Status::OK();
      }
      default:
        out->clear();
        return Status::OK();
    }
  }

  /// {x | π from x is non-empty}: backward propagation through inverse
  /// axes, written into `out`. It starts from all of dom, so the last
  /// step's node-test restriction reads |D| ids (a postings intersection
  /// when the index is on); each inverse-axis pass then costs what it
  /// propagates, not |D| (see EvalAxisInverse).
  Status PathOrigins(AstId path_id, std::vector<NodeId>* out) {
    const AstNode& path = tree_.node(path_id);
    EvalWorkspace::ScratchIds current = ws_.AcquireIds();
    current->resize(doc_.size());
    std::iota(current->begin(), current->end(), 0);
    EvalWorkspace::ScratchIds tested = ws_.AcquireIds();
    EvalWorkspace::ScratchIds sel = ws_.AcquireIds();
    EvalWorkspace::ScratchIds tmp = ws_.AcquireIds();
    for (size_t s = path.children.size(); s-- > 0;) {
      const AstNode& step = tree_.node(path.children[s]);
      XPE_RETURN_IF_ERROR(sc_.Charge(current->size()));
      RestrictByNodeTestInto(sc_, step, path.children[s], *current,
                             tested.get());
      for (AstId pred : step.children) {
        XPE_RETURN_IF_ERROR(PredSet(pred, *tested, sel.get()));
        IntersectInto(*tested, *sel, tmp.get());
        std::swap(*tested, *tmp);
      }
      ++sc_.stats().axis_evals;
      // The inverse-axis pass stays NodeSet-valued (axis.cc's single
      // per-step allocations, not per-row ones).
      const NodeSet origins =
          EvalAxisInverse(doc_, step.axis, NodeSet::FromSorted(*tested));
      current->assign(origins.begin(), origins.end());
      sc_.stats().AddCells(current->size());
    }
    if (path.absolute) {
      const bool reaches_root =
          std::binary_search(current->begin(), current->end(), doc_.root());
      out->clear();
      if (reaches_root) {
        out->resize(doc_.size());
        std::iota(out->begin(), out->end(), 0);
      }
      return Status::OK();
    }
    std::swap(*out, *current);
    return Status::OK();
  }

 private:
  EvalWorkspace& ws_;
  const QueryTree& tree_;
  StepContext& sc_;
  const Document& doc_;
};

}  // namespace

StatusOr<Value> EvalCoreXPath(EvalWorkspace& ws,
                              const xpath::CompiledQuery& query,
                              const EvalContext& ctx, StepContext& sc) {
  const xpath::AstNode& root = query.tree().node(query.root());
  if (root.kind != xpath::ExprKind::kPath || !root.core_xpath) {
    return StatusOr<Value>(Status::InvalidArgument(
        "query is not in Core XPath (Definition 12): " + query.source()));
  }
  CoreXPathEvaluator evaluator(ws, query.tree(), sc);
  EvalWorkspace::ScratchIds result = ws.AcquireIds();
  const xml::NodeId start = ctx.node;
  XPE_RETURN_IF_ERROR(evaluator.EvalPath(query.root(), {&start, 1},
                                         result.get(), sc.node_limit));
  return Value::Nodes(NodeSet::FromSorted(*result));
}

}  // namespace xpe::internal
