#include "src/core/mincontext_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace xpe::internal {

using xml::NodeId;
using xpath::AstId;
using xpath::AstNode;
using xpath::BinOp;
using xpath::ExprKind;
using xpath::FunctionId;
using xpath::QueryTree;

MinContextEngine::MinContextEngine(EvalWorkspace& ws, const QueryTree& tree,
                                   StepContext& sc, bool ablate_outermost_sets)
    : ws_(ws),
      tree_(tree),
      sc_(sc),
      doc_(sc.doc),
      ablate_outermost_sets_(ablate_outermost_sets),
      scalar_tables_(tree.size()),
      rel_tables_(tree.size()) {}

NodeSet MinContextEngine::StepImage(AstId step_id, const NodeSet& x,
                                    uint64_t limit) {
  EvalWorkspace::ScratchIds image = ws_.AcquireIds();
  StepKernel(sc_, tree_.node(step_id), step_id)
      .EvalInto(x.ids(), image.get(), limit);
  return NodeSet::FromSorted(*image);
}

void MinContextEngine::StoreScalarRow(AstId id, NodeId cn, Value v) {
  ScalarTable& t = scalar_table(id);
  if (t.row_of.empty()) t.row_of.assign(doc_.size(), 0);
  uint32_t& row = t.row_of[cn];
  if (row != 0) {
    t.rows[row - 1] = std::move(v);
    return;
  }
  t.rows.push_back(std::move(v));
  row = static_cast<uint32_t>(t.rows.size());
  sc_.stats().AddCells(1);
}

void MinContextEngine::StoreScalarConst(AstId id, Value v) {
  ScalarTable& t = scalar_table(id);
  if (!t.const_computed) sc_.stats().AddCells(1);
  t.const_computed = true;
  t.const_value = std::move(v);
}

void MinContextEngine::StoreRelRow(AstId id, NodeId origin,
                                   std::span<const NodeId> targets) {
  NodeTable& t = rel_table(id);
  if (!t.has_row(origin)) sc_.stats().AddCells(targets.size() + 1);
  t.SetRow(origin, targets);
}

/// Looks up table(id) at context node `cn`, computing the row lazily when
/// a caller (e.g. a ⟨cp,cs⟩ loop) reaches a node the batch pass skipped.
StatusOr<Value> MinContextEngine::EvalSingleContext(AstId id, NodeId cn,
                                                    uint32_t cp, uint32_t cs) {
  // Depends on cp/cs: evaluated per context, never tabled (§3.1).
  if (DependsOnPosition(id)) return EvalOperator(id, cn, cp, cs);
  if (IsNodeSetTyped(id)) {
    if (!rel_table(id).has_row(cn)) {
      XPE_RETURN_IF_ERROR(EvalInnerNodeSet(id, NodeSet::Single(cn)));
    }
    return Value::Nodes(rel_table(id).RowAsNodeSet(cn));
  }
  ScalarTable& t = scalar_table(id);
  if (t.bottom_up_done) return Value::Boolean(t.bottom_up[cn] != 0);
  if ((Relev(id) & xpath::kRelevCn) == 0) {
    if (!t.const_computed) {
      XPE_RETURN_IF_ERROR(EvalByCnodeOnly(id, NodeSet::Single(cn)));
    }
    return t.const_value;
  }
  if (t.Find(cn) == nullptr) {
    XPE_RETURN_IF_ERROR(EvalByCnodeOnly(id, NodeSet::Single(cn)));
  }
  return *t.Find(cn);
}

StatusOr<Value> MinContextEngine::EvalOperator(AstId id, NodeId cn,
                                               uint32_t cp, uint32_t cs) {
  XPE_RETURN_IF_ERROR(sc_.Charge());
  const AstNode& n = tree_.node(id);
  switch (n.kind) {
    case ExprKind::kNumberLiteral:
      return Value::Number(n.number);
    case ExprKind::kStringLiteral:
      return Value::String(n.string);
    case ExprKind::kFunctionCall: {
      if (n.fn == FunctionId::kPosition) {
        return Value::Number(static_cast<double>(cp));
      }
      if (n.fn == FunctionId::kLast) {
        return Value::Number(static_cast<double>(cs));
      }
      std::vector<Value> args;
      args.reserve(n.children.size());
      for (AstId child : n.children) {
        XPE_ASSIGN_OR_RETURN(Value v, EvalSingleContext(child, cn, cp, cs));
        args.push_back(std::move(v));
      }
      return ApplyFunction(doc_, n.fn, args);
    }
    case ExprKind::kBinaryOp: {
      XPE_ASSIGN_OR_RETURN(Value lhs,
                           EvalSingleContext(n.children[0], cn, cp, cs));
      if (n.op == BinOp::kAnd || n.op == BinOp::kOr) {
        const bool l = lhs.boolean();
        if (n.op == BinOp::kAnd && !l) return Value::Boolean(false);
        if (n.op == BinOp::kOr && l) return Value::Boolean(true);
        XPE_ASSIGN_OR_RETURN(Value rhs,
                             EvalSingleContext(n.children[1], cn, cp, cs));
        return Value::Boolean(rhs.boolean());
      }
      XPE_ASSIGN_OR_RETURN(Value rhs,
                           EvalSingleContext(n.children[1], cn, cp, cs));
      if (BinOpIsComparison(n.op)) {
        return Value::Boolean(EvalComparison(doc_, n.op, lhs, rhs));
      }
      return Value::Number(EvalArithmetic(n.op, lhs.number(), rhs.number()));
    }
    case ExprKind::kUnaryMinus: {
      XPE_ASSIGN_OR_RETURN(Value v,
                           EvalSingleContext(n.children[0], cn, cp, cs));
      return Value::Number(-v.number());
    }
    default:
      return StatusOr<Value>(
          Status::Internal("unexpected scalar kind in MINCONTEXT"));
  }
}

Status MinContextEngine::EvalByCnodeOnly(AstId id, const NodeSet& x) {
  const AstNode& n = tree_.node(id);
  if (scalar_table(id).bottom_up_done) return Status::OK();

  if (DependsOnPosition(id)) {
    // Only tables of cp/cs-free descendants can be prepared here; the node
    // itself is evaluated later inside the ⟨cp,cs⟩ loop.
    for (AstId child : n.children) {
      XPE_RETURN_IF_ERROR(EvalByCnodeOnly(child, x));
    }
    return Status::OK();
  }

  if (IsNodeSetTyped(id)) return EvalInnerNodeSet(id, x);

  // Scalar node with Relev(id) ⊆ {cn}.
  for (AstId child : n.children) {
    XPE_RETURN_IF_ERROR(EvalByCnodeOnly(child, x));
  }
  if ((Relev(id) & xpath::kRelevCn) == 0) {
    if (scalar_table(id).const_computed) return Status::OK();
    // Context-free: one evaluation suffices. Any representative context
    // node works; the root always exists.
    NodeId rep = x.empty() ? doc_.root() : x.First();
    XPE_ASSIGN_OR_RETURN(Value v, EvalOperator(id, rep, 0, 0));
    StoreScalarConst(id, std::move(v));
    return Status::OK();
  }
  for (NodeId cn : x) {
    if (scalar_table(id).Find(cn) != nullptr) continue;
    XPE_ASSIGN_OR_RETURN(Value v, EvalOperator(id, cn, 0, 0));
    StoreScalarRow(id, cn, std::move(v));
  }
  return Status::OK();
}

StatusOr<NodeSet> MinContextEngine::KeepSatisfying(
    std::span<const AstId> preds, NodeSet nodes) {
  for (AstId pred : preds) {
    XPE_RETURN_IF_ERROR(EvalByCnodeOnly(pred, nodes));
  }
  for (AstId pred : preds) {
    NodeSet kept;
    for (NodeId y : nodes) {
      XPE_ASSIGN_OR_RETURN(Value v, EvalSingleContext(pred, y, 0, 0));
      if (v.ToBoolean()) kept.PushBackOrdered(y);
    }
    nodes = std::move(kept);
  }
  return nodes;
}

bool MinContextEngine::AnyPositional(std::span<const AstId> preds) const {
  return std::any_of(preds.begin(), preds.end(),
                     [&](AstId pred) { return DependsOnPosition(pred); });
}

namespace {

std::optional<PositionSelector> AsPositionSelector(const QueryTree& tree,
                                                   AstId pred) {
  const AstNode& n = tree.node(pred);
  if (n.kind != ExprKind::kBinaryOp || n.op != BinOp::kEq) return std::nullopt;
  auto is_call = [](const AstNode& call, FunctionId fn) {
    return call.kind == ExprKind::kFunctionCall && call.fn == fn;
  };
  const AstNode* position = &tree.node(n.children[0]);
  const AstNode* other = &tree.node(n.children[1]);
  if (!is_call(*position, FunctionId::kPosition)) std::swap(position, other);
  if (!is_call(*position, FunctionId::kPosition)) return std::nullopt;
  if (is_call(*other, FunctionId::kLast)) {
    return PositionSelector{.last = true, .units = 3};
  }
  if (other->kind == ExprKind::kNumberLiteral) {
    return PositionSelector{.k = other->number, .units = 2};
  }
  return std::nullopt;
}

/// The 1-based position `selector` keeps among m candidates, 0 for none.
uint32_t SelectedPosition(const PositionSelector& selector, uint32_t m) {
  const double k = selector.last ? m : selector.k;
  return k >= 1 && k <= m && k == std::trunc(k) ? static_cast<uint32_t>(k)
                                                : 0;
}

}  // namespace

Status MinContextEngine::FilterByPredicatesSingle(
    std::span<const AstId> preds, std::vector<NodeId>* candidates) {
  EvalWorkspace::ScratchIds kept = ws_.AcquireIds();
  for (AstId pred : preds) {
    const uint32_t m = static_cast<uint32_t>(candidates->size());
    if (const std::optional<PositionSelector> selector =
            AsPositionSelector(tree_, pred)) {
      XPE_RETURN_IF_ERROR(sc_.Charge(uint64_t{m} * selector->units));
      if (const uint32_t k = SelectedPosition(*selector, m); k != 0) {
        const NodeId pick = (*candidates)[k - 1];
        candidates->assign(1, pick);
      } else {
        candidates->clear();
      }
      continue;
    }
    kept->clear();
    for (uint32_t j = 0; j < m; ++j) {
      XPE_ASSIGN_OR_RETURN(
          Value v, EvalSingleContext(pred, (*candidates)[j], j + 1, m));
      if (v.boolean()) kept->push_back((*candidates)[j]);
    }
    std::swap(*candidates, *kept);
  }
  return Status::OK();
}

StatusOr<MinContextEngine::StepRows> MinContextEngine::PrepareRows(
    AstId step_id, const NodeSet& image) {
  const AstNode& step = tree_.node(step_id);
  for (AstId pred : step.children) {
    XPE_RETURN_IF_ERROR(EvalByCnodeOnly(pred, image));
  }
  std::optional<PositionSelector> rank_by;
  if (step.axis == Axis::kFollowingSibling ||
      step.axis == Axis::kPrecedingSibling) {
    rank_by = AsPositionSelector(tree_, step.children[0]);
  }
  StepRows rows{.step_id = step_id, .image = image.ids(),
                .rank_by = rank_by, .by_parent = ws_.AcquireIds()};
  if (rank_by) {
    rows.by_parent->assign(image.begin(), image.end());
    std::sort(rows.by_parent->begin(), rows.by_parent->end(),
              [&](NodeId a, NodeId b) {
                return std::pair(doc_.parent(a), a) <
                       std::pair(doc_.parent(b), b);
              });
  }
  return rows;
}

Status MinContextEngine::SelectRow(const StepRows& rows, NodeId origin,
                                   std::vector<NodeId>* row) {
  const AstNode& step = tree_.node(rows.step_id);
  row->clear();
  if (rows.rank_by) {
    // The origin's siblings in the image are one run of `by_parent`: the
    // parent's children after it (following-sibling) or before it
    // (preceding-sibling; the parent's attributes sort first and are
    // skipped), with positions counted away from the origin.
    const bool following = step.axis == Axis::kFollowingSibling;
    const NodeId parent = doc_.parent(origin);
    std::span<const NodeId> run;
    if (parent != xml::kInvalidNodeId && !doc_.IsAttribute(origin)) {
      // The first node of `by_parent` at or after (p, id).
      auto bound = [&](NodeId p, NodeId id) {
        const std::vector<NodeId>& sorted = *rows.by_parent;
        return std::partition_point(
            sorted.begin(), sorted.end(), [&](NodeId y) {
              return std::pair(doc_.parent(y), y) < std::pair(p, id);
            });
      };
      run = following ? std::span(bound(parent, origin + 1),
                                  bound(parent + 1, 0))
                      : std::span(bound(parent, doc_.AttrEnd(parent)),
                                  bound(parent, origin));
    }
    const uint32_t m = static_cast<uint32_t>(run.size());
    XPE_RETURN_IF_ERROR(sc_.Charge(uint64_t{m} * rows.rank_by->units));
    if (const uint32_t k = SelectedPosition(*rows.rank_by, m); k != 0) {
      row->push_back(following ? run[k - 1] : run[m - k]);
    }
    return FilterByPredicatesSingle(std::span(step.children).subspan(1), row);
  }
  AppendAxisRow(doc_, step.axis, origin, rows.image, row);
  // Positions count in the step order <doc,χ: reverse document order on
  // the reverse axes.
  const bool reverse = AxisIsReverse(step.axis);
  if (reverse) std::reverse(row->begin(), row->end());
  XPE_RETURN_IF_ERROR(FilterByPredicatesSingle(step.children, row));
  if (reverse) std::reverse(row->begin(), row->end());
  return Status::OK();
}

Status MinContextEngine::EvalStepRelation(AstId step_id, const NodeSet& x,
                                          NodeTable* out) {
  const AstNode& step = tree_.node(step_id);
  XPE_RETURN_IF_ERROR(sc_.Charge(x.size()));
  out->Reset(ws_.arena(), doc_.size());
  NodeSet y_all = StepImage(step_id, x);

  if (!AnyPositional(step.children)) {
    XPE_ASSIGN_OR_RETURN(const NodeSet survivors,
                         KeepSatisfying(step.children, std::move(y_all)));
    EvalWorkspace::ScratchIds row = ws_.AcquireIds();
    for (NodeId origin : x) {
      row->clear();
      AppendAxisRow(doc_, step.axis, origin, survivors.ids(), row.get());
      // One id at a time, not SetRow: a bulk append grows the table's
      // arena buffer in different steps, which arena_bytes_peak shows.
      out->BeginRow(origin);
      for (NodeId y : *row) out->PushOrdered(y);
      out->CommitRow();
    }
    return Status::OK();
  }

  // At least one predicate reads cp/cs: loop over previous/current
  // context-node pairs (the §3.1 "treating position and size in a loop").
  XPE_ASSIGN_OR_RETURN(const StepRows rows, PrepareRows(step_id, y_all));
  EvalWorkspace::ScratchIds row = ws_.AcquireIds();
  for (NodeId origin : x) {
    XPE_RETURN_IF_ERROR(SelectRow(rows, origin, row.get()));
    out->SetRow(origin, *row);
  }
  return Status::OK();
}

Status MinContextEngine::EvalInnerNodeSet(AstId id, const NodeSet& x) {
  NodeSet missing;
  {
    const NodeTable& table = rel_table(id);
    for (NodeId origin : x) {
      if (!table.has_row(origin)) missing.PushBackOrdered(origin);
    }
  }
  if (missing.empty()) return Status::OK();

  const AstNode& n = tree_.node(id);
  switch (n.kind) {
    case ExprKind::kPath: {
      size_t step_begin = 0;
      // Per-origin frontiers (the pair relation of eval_inner_locpath,
      // grouped by origin), keyed by index into `missing`. Arena tables:
      // each step builds the next generation, the previous one is
      // abandoned to the arena.
      NodeTable rows;
      rows.Reset(ws_.arena(), static_cast<uint32_t>(missing.size()));
      if (n.has_head) {
        XPE_RETURN_IF_ERROR(EvalInnerNodeSet(n.children[0], missing));
        for (size_t i = 0; i < missing.size(); ++i) {
          rows.SetRow(static_cast<uint32_t>(i),
                      rel_table(n.children[0]).Row(missing[i]));
        }
        step_begin = 1;
      } else if (n.absolute) {
        const NodeId root = doc_.root();
        for (size_t i = 0; i < missing.size(); ++i) {
          rows.SetRow(static_cast<uint32_t>(i), {&root, 1});
        }
      } else {
        for (size_t i = 0; i < missing.size(); ++i) {
          const NodeId origin = missing[i];
          rows.SetRow(static_cast<uint32_t>(i), {&origin, 1});
        }
      }
      EvalWorkspace::ScratchIds frontier_ids = ws_.AcquireIds();
      EvalWorkspace::ScratchIds merged = ws_.AcquireIds();
      for (size_t s = step_begin; s < n.children.size(); ++s) {
        frontier_ids->clear();
        for (size_t i = 0; i < missing.size(); ++i) {
          const std::span<const NodeId> row =
              rows.Row(static_cast<uint32_t>(i));
          frontier_ids->insert(frontier_ids->end(), row.begin(), row.end());
        }
        SortUnique(frontier_ids.get());
        const NodeSet frontier = NodeSet::FromSorted(*frontier_ids);
        // The step relation is the paper's table(N) for this location
        // step — transient here, but it is the Θ(|D|²) object inner
        // paths pay for, so it must show up in the space instrumentation.
        NodeTable step_rel;
        XPE_RETURN_IF_ERROR(
            EvalStepRelation(n.children[s], frontier, &step_rel));
        uint64_t transient_cells = 0;
        for (NodeId y : frontier) {
          transient_cells += step_rel.Row(y).size() + 1;
        }
        sc_.stats().AddCells(transient_cells);
        NodeTable next;
        next.Reset(ws_.arena(), static_cast<uint32_t>(missing.size()));
        for (size_t i = 0; i < missing.size(); ++i) {
          step_rel.UnionRowsInto(rows.Row(static_cast<uint32_t>(i)),
                                 merged.get());
          next.SetRow(static_cast<uint32_t>(i), *merged);
        }
        rows = std::move(next);
        sc_.stats().ReleaseCells(transient_cells);
      }
      for (size_t i = 0; i < missing.size(); ++i) {
        StoreRelRow(id, missing[i], rows.Row(static_cast<uint32_t>(i)));
      }
      return Status::OK();
    }
    case ExprKind::kUnion: {
      for (AstId child : n.children) {
        XPE_RETURN_IF_ERROR(EvalInnerNodeSet(child, missing));
      }
      EvalWorkspace::ScratchIds row = ws_.AcquireIds();
      for (NodeId origin : missing) {
        row->clear();
        for (AstId child : n.children) {
          const std::span<const NodeId> part = rel_table(child).Row(origin);
          row->insert(row->end(), part.begin(), part.end());
        }
        SortUnique(row.get());
        StoreRelRow(id, origin, *row);
      }
      return Status::OK();
    }
    case ExprKind::kFilter: {
      XPE_RETURN_IF_ERROR(EvalInnerNodeSet(n.children[0], missing));
      EvalWorkspace::ScratchIds all_ids = ws_.AcquireIds();
      rel_table(n.children[0]).UnionRowsInto(missing.ids(), all_ids.get());
      const NodeSet all_targets = NodeSet::FromSorted(*all_ids);
      const std::span<const AstId> preds = std::span(n.children).subspan(1);
      for (AstId pred : preds) {
        XPE_RETURN_IF_ERROR(EvalByCnodeOnly(pred, all_targets));
      }
      EvalWorkspace::ScratchIds candidates = ws_.AcquireIds();
      for (NodeId origin : missing) {
        const std::span<const NodeId> head_row =
            rel_table(n.children[0]).Row(origin);
        // Filter predicates count positions in document order.
        candidates->assign(head_row.begin(), head_row.end());
        XPE_RETURN_IF_ERROR(FilterByPredicatesSingle(preds, candidates.get()));
        StoreRelRow(id, origin, *candidates);
      }
      return Status::OK();
    }
    case ExprKind::kFunctionCall: {
      if (n.fn != FunctionId::kId) {
        return Status::Internal(
            "node-set function other than id() in eval_inner_locpath");
      }
      const AstId arg = n.children[0];
      XPE_RETURN_IF_ERROR(EvalByCnodeOnly(arg, missing));
      if (Relev(arg) == 0) {
        XPE_ASSIGN_OR_RETURN(Value s,
                             EvalSingleContext(arg, missing.First(), 0, 0));
        const std::vector<NodeId> targets = doc_.DerefIds(s.ToString(doc_));
        for (NodeId origin : missing) StoreRelRow(id, origin, targets);
        return Status::OK();
      }
      for (NodeId origin : missing) {
        XPE_ASSIGN_OR_RETURN(Value s, EvalSingleContext(arg, origin, 0, 0));
        StoreRelRow(id, origin, doc_.DerefIds(s.ToString(doc_)));
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unexpected node-set kind: " +
                              std::string(ExprKindToString(n.kind)));
  }
}

StatusOr<NodeSet> MinContextEngine::EvalOutermostLocpath(AstId id,
                                                         const NodeSet& x,
                                                         uint64_t limit) {
  const AstNode& n = tree_.node(id);
  switch (n.kind) {
    case ExprKind::kPath: {
      NodeSet current;
      size_t step_begin = 0;
      if (n.has_head) {
        XPE_RETURN_IF_ERROR(EvalInnerNodeSet(n.children[0], x));
        EvalWorkspace::ScratchIds heads = ws_.AcquireIds();
        rel_table(n.children[0]).UnionRowsInto(x.ids(), heads.get());
        current = NodeSet::FromSorted(*heads);
        step_begin = 1;
      } else if (n.absolute) {
        current = NodeSet::Single(doc_.root());
      } else {
        current = x;
      }
      const size_t k = n.children.size();
      // (`//t` arrives here already fused to `descendant::t` by the
      // compile-time optimizer, so the final-step limit below is all the
      // early-termination machinery this path needs.)
      for (size_t s = step_begin; s < k; ++s) {
        const AstNode& step = tree_.node(n.children[s]);
        const bool is_last = s + 1 == k;
        // One budget unit per (step, frontier node), as in Core XPath.
        XPE_RETURN_IF_ERROR(sc_.Charge(current.size()));
        // A predicate-free final step is where the early-terminating
        // modes stop: the image is emitted in document order, so its
        // `limit`-prefix is exactly the prefix of the full result.
        const uint64_t step_limit =
            is_last && step.children.empty() ? limit : kNoNodeLimit;
        NodeSet y_all = StepImage(n.children[s], current, step_limit);
        if (!AnyPositional(step.children)) {
          XPE_ASSIGN_OR_RETURN(current,
                               KeepSatisfying(step.children, std::move(y_all)));
          continue;
        }
        XPE_ASSIGN_OR_RETURN(const StepRows rows,
                             PrepareRows(n.children[s], y_all));
        EvalWorkspace::ScratchIds row = ws_.AcquireIds();
        EvalWorkspace::ScratchIds result = ws_.AcquireIds();
        for (NodeId origin : current) {
          XPE_RETURN_IF_ERROR(SelectRow(rows, origin, row.get()));
          result->insert(result->end(), row->begin(), row->end());
        }
        SortUnique(result.get());
        current = NodeSet::FromSorted(*result);
      }
      return current;
    }
    case ExprKind::kUnion: {
      // Each branch may stop at `limit` on its own: every node of the
      // union's document-order `limit`-prefix ranks at least as early
      // within its own branch, so the union of branch prefixes is a
      // superset of the true prefix (the dispatcher truncates).
      NodeSet out;
      for (AstId child : n.children) {
        XPE_ASSIGN_OR_RETURN(NodeSet part,
                             EvalOutermostLocpath(child, x, limit));
        out = out.Union(part);
      }
      return out;
    }
    case ExprKind::kFilter: {
      // Filter predicates count positions over the head's full result;
      // the limit must not reach past them.
      XPE_ASSIGN_OR_RETURN(
          NodeSet head,
          EvalOutermostLocpath(n.children[0], x, kNoNodeLimit));
      const std::span<const AstId> preds = std::span(n.children).subspan(1);
      for (AstId pred : preds) {
        XPE_RETURN_IF_ERROR(EvalByCnodeOnly(pred, head));
      }
      EvalWorkspace::ScratchIds candidates = ws_.AcquireIds();
      candidates->assign(head.begin(), head.end());
      XPE_RETURN_IF_ERROR(FilterByPredicatesSingle(preds, candidates.get()));
      return NodeSet::FromSorted(*candidates);
    }
    case ExprKind::kFunctionCall: {
      // id(s) at the outermost level; pair relations are always full.
      XPE_RETURN_IF_ERROR(EvalInnerNodeSet(id, x));
      EvalWorkspace::ScratchIds out = ws_.AcquireIds();
      rel_table(id).UnionRowsInto(x.ids(), out.get());
      return NodeSet::FromSorted(*out);
    }
    default:
      return StatusOr<NodeSet>(
          Status::Internal("unexpected outermost location path kind"));
  }
}

StatusOr<Value> MinContextEngine::Run(const EvalContext& ctx, bool optimized) {
  if (optimized) {
    XPE_RETURN_IF_ERROR(RunBottomUpPasses());
  }
  const AstId root = tree_.root();
  if (IsNodeSetTyped(root)) {
    if (ablate_outermost_sets_) {
      // Ablation of §3.1's second idea: the outermost path runs through
      // the pair-relation evaluator like any inner path.
      XPE_RETURN_IF_ERROR(EvalInnerNodeSet(root, NodeSet::Single(ctx.node)));
      return Value::Nodes(rel_table(root).RowAsNodeSet(ctx.node));
    }
    XPE_ASSIGN_OR_RETURN(
        NodeSet result,
        EvalOutermostLocpath(root, NodeSet::Single(ctx.node), sc_.node_limit));
    return Value::Nodes(std::move(result));
  }
  XPE_RETURN_IF_ERROR(EvalByCnodeOnly(root, NodeSet::Single(ctx.node)));
  return EvalSingleContext(root, ctx.node, ctx.position, ctx.size);
}

StatusOr<Value> EvalMinContext(EvalWorkspace& ws,
                               const xpath::CompiledQuery& query,
                               const EvalContext& ctx, StepContext& sc,
                               bool optimized, bool ablate_outermost_sets) {
  MinContextEngine engine(ws, query.tree(), sc, ablate_outermost_sets);
  return engine.Run(ctx, optimized);
}

}  // namespace xpe::internal
