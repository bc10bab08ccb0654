// The Extended Wadler Fragment machinery of §4/§5: bottom-up evaluation of
// location paths occurring as boolean(π) or π RelOp s, via backward
// propagation of node sets through inverse axes (eval_bottomup_path and
// propagate_path_backwards of §6).

#include "src/common/numeric.h"
#include "src/core/mincontext_engine.h"
#include "src/index/step_index.h"

namespace xpe::internal {

using xml::NodeId;
using xpath::AstId;
using xpath::AstNode;
using xpath::BinOp;
using xpath::ExprKind;
using xpath::FunctionId;
using xpath::QueryTree;

namespace {

/// Post-order collection of the §5 bottom-up-eligible occurrences, so
/// that nested bottom-up paths (Example 9's ρ inside π) are evaluated
/// innermost-first, as Algorithm 8 requires.
void CollectBottomUpNodes(const QueryTree& tree, AstId id,
                          std::vector<AstId>* out) {
  const AstNode& n = tree.node(id);
  for (AstId child : n.children) CollectBottomUpNodes(tree, child, out);
  if (n.bottom_up_eligible) out->push_back(id);
}

}  // namespace

Status MinContextEngine::RunBottomUpPasses() {
  std::vector<AstId> eligible;
  CollectBottomUpNodes(tree_, tree_.root(), &eligible);
  for (AstId id : eligible) {
    XPE_RETURN_IF_ERROR(EvalBottomUpPath(id));
  }
  return Status::OK();
}

StatusOr<NodeSet> MinContextEngine::EvalContextFreeNodeSet(AstId id) {
  XPE_RETURN_IF_ERROR(EvalInnerNodeSet(id, NodeSet::Single(doc_.root())));
  return rel_table(id).RowAsNodeSet(doc_.root());
}

StatusOr<NodeSet> MinContextEngine::PropagatePathBackwards(AstId path_id,
                                                           NodeSet y) {
  const AstNode& path = tree_.node(path_id);
  size_t step_begin = (path.has_head ? 1 : 0);

  NodeSet current = std::move(y);
  for (size_t s = path.children.size(); s-- > step_begin;) {
    const AstNode& step = tree_.node(path.children[s]);

    // One budget unit per (step, propagated node) — the backward
    // passes' analog of the forward engines' per-(step, frontier node)
    // charge. Without this, a fully bottom-up query (boolean(π) with a
    // predicate-free Wadler path) performed all its work in this loop
    // and EvalOptions::budget was silently ignored.
    XPE_RETURN_IF_ERROR(sc_.Charge(current.size()));

    // Y' := members of the propagated set passing this step's node test
    // (a postings intersection when the index is on).
    std::vector<NodeId> tested_ids;
    RestrictByNodeTestInto(sc_, step, path.children[s], current.ids(),
                           &tested_ids);
    NodeSet tested(std::move(tested_ids));
    if (!AnyPositional(step.children)) {
      XPE_ASSIGN_OR_RETURN(const NodeSet survivors,
                           KeepSatisfying(step.children, std::move(tested)));
      ++sc_.stats().axis_evals;
      current = EvalAxisInverse(doc_, step.axis, survivors);
      continue;
    }

    // Positional predicates: iterate over the candidate origins X' and
    // evaluate positions over each origin's *full* candidate list (see
    // the §6 note under "Paper notes" in docs/architecture.md), then keep
    // origins whose surviving candidates intersect the propagated set.
    ++sc_.stats().axis_evals;
    NodeSet origins = EvalAxisInverse(doc_, step.axis, tested);
    NodeSet universe = StepImage(path.children[s], origins);
    XPE_ASSIGN_OR_RETURN(const StepRows rows,
                         PrepareRows(path.children[s], universe));
    NodeSet kept_origins;
    EvalWorkspace::ScratchIds row = ws_.AcquireIds();
    for (NodeId origin : origins) {
      XPE_RETURN_IF_ERROR(SelectRow(rows, origin, row.get()));
      bool hits_target = false;
      for (NodeId z : *row) {
        if (tested.Contains(z)) {
          hits_target = true;
          break;
        }
      }
      if (hits_target) kept_origins.PushBackOrdered(origin);
    }
    current = std::move(kept_origins);
  }

  // Anchor the propagation at the path's start.
  if (path.absolute) {
    return current.Contains(doc_.root()) ? NodeSet::Universe(doc_.size())
                                         : NodeSet();
  }
  if (path.has_head) {
    XPE_ASSIGN_OR_RETURN(NodeSet head_set,
                         EvalContextFreeNodeSet(path.children[0]));
    return head_set.Intersect(current).empty() ? NodeSet()
                                               : NodeSet::Universe(doc_.size());
  }
  return current;
}

NodeSet MinContextEngine::SeedCandidates(AstId path_id,
                                         const NodeScalarTest& test) {
  const uint64_t t0 = sc_.StepStart();
  const AstNode& path = tree_.node(path_id);
  const size_t step_begin = path.has_head ? 1 : 0;
  const bool has_step = path.children.size() > step_begin;
  const AstId row_id = has_step ? path.children.back() : path_id;
  const AstNode* last = has_step ? &tree_.node(row_id) : nullptr;
  const bool indexed = last != nullptr && sc_.use_index &&
                       index::NodeTestIndexable(last->test);
  EvalWorkspace::ScratchIds candidates = ws_.AcquireIds();
  std::vector<NodeId>* out = candidates.get();
  out->clear();
  if (indexed) {
    const index::PostingsView postings = index::StepPostings(
        doc_, doc_.index_view(sc_.tier), last->axis, last->test);
    out->resize(postings.size());
    postings.Decode(0, postings.size(), out->data());
  } else {
    for (NodeId node = 0; node < doc_.size(); ++node) {
      if (last == nullptr ||
          MatchesNodeTest(doc_, last->axis, last->test, node)) {
        out->push_back(node);
      }
    }
  }
  NodeSet y;
  for (NodeId node : *out) {
    if (test(doc_, node)) y.PushBackOrdered(node);
  }
  const uint64_t examined = indexed ? out->size() : doc_.size();
  sc_.RecordStep(row_id, t0, /*frontier=*/0, y.size(), examined, indexed);
  return y;
}

Status MinContextEngine::EvalBottomUpPath(AstId id) {
  const AstNode& n = tree_.node(id);
  if (scalar_table(id).bottom_up_done) return Status::OK();

  AstId path_id = xpath::kInvalidAstId;
  AstId scalar_id = xpath::kInvalidAstId;
  bool path_on_left = true;
  BinOp op = BinOp::kEq;
  bool boolean_mode = false;

  if (n.kind == ExprKind::kFunctionCall && n.fn == FunctionId::kBoolean) {
    path_id = n.children[0];
    boolean_mode = true;
  } else {
    op = n.op;
    const bool lns =
        tree_.node(n.children[0]).type == xpath::ValueType::kNodeSet;
    path_id = n.children[lns ? 0 : 1];
    scalar_id = n.children[lns ? 1 : 0];
    path_on_left = lns;
  }

  // Step 1: the initial node set Y (and, for π RelOp b, the anchor value
  // of the context-independent operand).
  NodeSet y;
  bool bool_anchor = false;
  bool bool_anchor_value = false;
  const NodeId dom_size = doc_.size();

  if (boolean_mode) {
    y = NodeSet::Universe(dom_size);
  } else {
    const AstNode& s = tree_.node(scalar_id);
    // The operand is context-independent; evaluate it once.
    XPE_RETURN_IF_ERROR(EvalByCnodeOnly(scalar_id, NodeSet::Single(0)));
    XPE_ASSIGN_OR_RETURN(Value s_val, EvalSingleContext(scalar_id, 0, 0, 0));
    if (s.type == xpath::ValueType::kBoolean) {
      // π RelOp b behaves like boolean(π) RelOp b: propagate with
      // Y = dom and compare the existence bit afterwards.
      y = NodeSet::Universe(dom_size);
      bool_anchor = true;
      bool_anchor_value = s_val.boolean();
    } else {
      // One budget unit per document node, however few candidates the
      // node test leaves.
      XPE_RETURN_IF_ERROR(sc_.Charge(dom_size));
      // Each node is tested as the left operand: s RelOp π is π RelOp' s
      // with the mirrored operator.
      y = SeedCandidates(
          path_id, NodeScalarTest(path_on_left ? op : MirrorOp(op), s_val));
    }
  }

  // Step 2: propagate Y backwards through the path.
  XPE_ASSIGN_OR_RETURN(NodeSet reachable, PropagatePathBackwards(path_id, y));

  // Fill table(id) for every possible context node: linear space. A
  // node's value depends only on whether it reaches Y.
  auto value_of = [&](bool exists) {
    if (!bool_anchor) return exists;
    return path_on_left
               ? EvalComparison(doc_, op, Value::Boolean(exists),
                                Value::Boolean(bool_anchor_value))
               : EvalComparison(doc_, op, Value::Boolean(bool_anchor_value),
                                Value::Boolean(exists));
  };
  ScalarTable& table = scalar_table(id);
  table.bottom_up.assign(dom_size, value_of(false) ? 1 : 0);
  const uint8_t if_reached = value_of(true) ? 1 : 0;
  for (NodeId node : reachable) table.bottom_up[node] = if_reached;
  table.bottom_up_done = true;
  sc_.stats().AddCells(dom_size);
  return Status::OK();
}

}  // namespace xpe::internal
