// E↑ of [11] (recalled in §2.3): strict bottom-up evaluation. Every
// scalar subexpression gets a *complete* context-value table over all
// ⟨cn,cp,cs⟩ with 1 ≤ cp ≤ cs ≤ |dom| (that is Θ(|dom|³/2) rows), and
// every node-set subexpression a complete pair relation over dom². This
// is the memory-hungry reference point the paper improves on; the E5
// space benchmark depends on these tables being materialized for real.
//
// Pair relations are flat NodeTables on the session arena (one
// contiguous id buffer per table, no per-row heap vectors); the scalar
// tables stay std::vector<Value> because Value is not trivially
// destructible.

#include "src/core/engine_internal.h"
#include "src/core/functions.h"
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

/// Documents larger than this make E↑'s |dom|³ tables exceed laptop
/// memory; refuse loudly instead of thrashing (the experiments use ≤ 64).
constexpr NodeId kMaxBottomUpDocument = 192;

class BottomUpEvaluator {
 public:
  BottomUpEvaluator(EvalWorkspace& ws, const QueryTree& tree, StepContext& sc)
      : ws_(ws),
        tree_(tree),
        sc_(sc),
        doc_(sc.doc),
        n_(doc_.size()),
        tri_size_(static_cast<size_t>(n_) * (n_ + 1) / 2),
        scalar_tables_(tree.size()),
        rel_tables_(tree.size()) {}

  /// Index of ⟨cp,cs⟩ with 1 ≤ cp ≤ cs ≤ n in the triangular layout.
  size_t TriIndex(uint32_t cp, uint32_t cs) const {
    return static_cast<size_t>(cs - 1) * cs / 2 + (cp - 1);
  }
  size_t CtxIndex(NodeId cn, uint32_t cp, uint32_t cs) const {
    return static_cast<size_t>(cn) * tri_size_ + TriIndex(cp, cs);
  }

  Status Build(AstId id) {
    const AstNode& n = tree_.node(id);
    for (AstId child : n.children) {
      if (tree_.node(child).kind == ExprKind::kStep) {
        // Steps are composed by their parent path; only their predicates
        // are expressions with tables of their own.
        for (AstId pred : tree_.node(child).children) {
          XPE_RETURN_IF_ERROR(Build(pred));
        }
      } else {
        XPE_RETURN_IF_ERROR(Build(child));
      }
    }
    if (n.type == xpath::ValueType::kNodeSet) return BuildRelation(id);
    return BuildScalar(id);
  }

  StatusOr<Value> Result(const EvalContext& ctx) const {
    const AstNode& root = tree_.node(tree_.root());
    if (root.type == xpath::ValueType::kNodeSet) {
      return Value::Nodes(rel_tables_[tree_.root()].RowAsNodeSet(ctx.node));
    }
    return scalar_tables_[tree_.root()][CtxIndex(
        ctx.node, std::min<uint32_t>(ctx.position, n_),
        std::min<uint32_t>(ctx.size, n_))];
  }

 private:
  /// E↑ charges one budget unit per table cell it writes.
  Status Charge(uint64_t cells) {
    sc_.stats().AddCells(cells);
    return sc_.Charge(cells);
  }

  /// Scalar value of child `id` at a full context triple.
  const Value& Lookup(AstId id, NodeId cn, uint32_t cp, uint32_t cs) const {
    return scalar_tables_[id][CtxIndex(cn, cp, cs)];
  }

  Status BuildScalar(AstId id) {
    const AstNode& n = tree_.node(id);
    std::vector<Value>& table = scalar_tables_[id];
    table.resize(static_cast<size_t>(n_) * tri_size_);
    XPE_RETURN_IF_ERROR(Charge(table.size()));

    std::vector<Value> args;
    for (NodeId cn = 0; cn < n_; ++cn) {
      for (uint32_t cs = 1; cs <= n_; ++cs) {
        for (uint32_t cp = 1; cp <= cs; ++cp) {
          const size_t at = CtxIndex(cn, cp, cs);
          switch (n.kind) {
            case ExprKind::kNumberLiteral:
              table[at] = Value::Number(n.number);
              break;
            case ExprKind::kStringLiteral:
              table[at] = Value::String(n.string);
              break;
            case ExprKind::kFunctionCall: {
              if (n.fn == FunctionId::kPosition) {
                table[at] = Value::Number(cp);
                break;
              }
              if (n.fn == FunctionId::kLast) {
                table[at] = Value::Number(cs);
                break;
              }
              args.clear();
              for (AstId child : n.children) {
                args.push_back(ChildValue(child, cn, cp, cs));
              }
              XPE_ASSIGN_OR_RETURN(Value v, ApplyFunction(doc_, n.fn, args));
              table[at] = std::move(v);
              break;
            }
            case ExprKind::kBinaryOp: {
              const Value lhs = ChildValue(n.children[0], cn, cp, cs);
              const Value rhs = ChildValue(n.children[1], cn, cp, cs);
              if (n.op == BinOp::kAnd) {
                table[at] = Value::Boolean(lhs.boolean() && rhs.boolean());
              } else if (n.op == BinOp::kOr) {
                table[at] = Value::Boolean(lhs.boolean() || rhs.boolean());
              } else if (BinOpIsComparison(n.op)) {
                table[at] =
                    Value::Boolean(EvalComparison(doc_, n.op, lhs, rhs));
              } else {
                table[at] = Value::Number(
                    EvalArithmetic(n.op, lhs.number(), rhs.number()));
              }
              break;
            }
            case ExprKind::kUnaryMinus:
              table[at] = Value::Number(
                  -ChildValue(n.children[0], cn, cp, cs).number());
              break;
            default:
              return Status::Internal("scalar kind unsupported in E-up");
          }
        }
      }
    }
    return Status::OK();
  }

  /// Value of a child at a context: scalars from their full table,
  /// node-sets from their relation row.
  Value ChildValue(AstId id, NodeId cn, uint32_t cp, uint32_t cs) const {
    if (tree_.node(id).type == xpath::ValueType::kNodeSet) {
      return Value::Nodes(rel_tables_[id].RowAsNodeSet(cn));
    }
    return Lookup(id, cn, cp, cs);
  }

  /// A fresh per-origin relation table on the session arena.
  NodeTable NewRelation() {
    NodeTable table;
    table.Reset(ws_.arena(), n_);
    return table;
  }

  Status BuildRelation(AstId id) {
    const AstNode& n = tree_.node(id);
    NodeTable rel = NewRelation();
    switch (n.kind) {
      case ExprKind::kPath: {
        size_t step_begin = 0;
        if (n.has_head) {
          rel.CopyRows(rel_tables_[n.children[0]]);
          step_begin = 1;
        } else if (n.absolute) {
          // {(x0, y) | x0 ∈ dom, (root, y) ∈ R'}: computed by running the
          // steps from root and copying to every origin afterwards.
          const NodeId root = doc_.root();
          for (NodeId x = 0; x < n_; ++x) rel.SetRow(x, {&root, 1});
        } else {
          for (NodeId x = 0; x < n_; ++x) rel.SetRow(x, {&x, 1});
        }
        for (size_t s = step_begin; s < n.children.size(); ++s) {
          XPE_RETURN_IF_ERROR(ComposeStep(n.children[s], &rel));
        }
        break;
      }
      case ExprKind::kUnion: {
        EvalWorkspace::ScratchIds row = ws_.AcquireIds();
        EvalWorkspace::ScratchIds merged = ws_.AcquireIds();
        for (NodeId x = 0; x < n_; ++x) {
          const std::span<const NodeId> first = rel_tables_[n.children[0]].Row(x);
          row->assign(first.begin(), first.end());
          for (size_t c = 1; c < n.children.size(); ++c) {
            UnionInto(*row, rel_tables_[n.children[c]].Row(x), merged.get());
            std::swap(*row, *merged);
          }
          rel.SetRow(x, *row);
        }
        break;
      }
      case ExprKind::kFilter: {
        EvalWorkspace::ScratchIds row = ws_.AcquireIds();
        EvalWorkspace::ScratchIds kept = ws_.AcquireIds();
        for (NodeId x = 0; x < n_; ++x) {
          const std::span<const NodeId> head = rel_tables_[n.children[0]].Row(x);
          row->assign(head.begin(), head.end());
          for (size_t p = 1; p < n.children.size(); ++p) {
            const uint32_t m = static_cast<uint32_t>(row->size());
            kept->clear();
            for (uint32_t j = 0; j < m; ++j) {
              if (Lookup(n.children[p], (*row)[j], j + 1, m).boolean()) {
                kept->push_back((*row)[j]);
              }
            }
            std::swap(*row, *kept);
          }
          rel.SetRow(x, *row);
        }
        break;
      }
      case ExprKind::kFunctionCall: {
        if (n.fn != FunctionId::kId) {
          return Status::Internal("node-set function unsupported in E-up");
        }
        EvalWorkspace::ScratchIds targets = ws_.AcquireIds();
        for (NodeId x = 0; x < n_; ++x) {
          const Value& s = Lookup(n.children[0], x, 1, 1);
          const std::vector<NodeId> derefed = doc_.DerefIds(s.ToString(doc_));
          targets->assign(derefed.begin(), derefed.end());
          SortUnique(targets.get());
          rel.SetRow(x, *targets);
        }
        break;
      }
      default:
        return Status::Internal("relation kind unsupported in E-up");
    }
    const uint64_t cells = rel.cells();
    rel_tables_[id] = std::move(rel);
    return Charge(cells + n_);
  }

  /// rel := rel ∘ step: every origin's frontier advances through one
  /// location step, with predicates looked up in their full tables.
  Status ComposeStep(AstId step_id, NodeTable* rel) {
    const AstNode& step = tree_.node(step_id);
    // Pass 1: the per-frontier-node step relation (y → targets), one row
    // per distinct y across all origins' frontiers. One kernel for all
    // origins: the postings lookup happens once per step.
    EvalWorkspace::ScratchBits in_frontier = ws_.AcquireBits(n_);
    for (NodeId x = 0; x < n_; ++x) {
      for (NodeId y : rel->Row(x)) in_frontier.Set(y);
    }
    const StepKernel kernel(sc_, step, step_id);
    NodeTable step_of;
    step_of.Reset(ws_.arena(), n_);
    EvalWorkspace::ScratchIds candidates = ws_.AcquireIds();
    EvalWorkspace::ScratchIds ordered = ws_.AcquireIds();
    EvalWorkspace::ScratchIds kept = ws_.AcquireIds();
    for (NodeId y = 0; y < n_; ++y) {
      if (!in_frontier.Test(y)) continue;
      if (step.axis == Axis::kId) {
        ++sc_.stats().axis_evals;
        const std::vector<NodeId>& targets = doc_.IdAxisForward(y);
        candidates->assign(targets.begin(), targets.end());
        SortUnique(candidates.get());
      } else {
        kernel.EvalInto({&y, 1}, candidates.get());
      }
      OrderForAxisInto(step.axis, *candidates, ordered.get());
      for (AstId pred : step.children) {
        const uint32_t m = static_cast<uint32_t>(ordered->size());
        kept->clear();
        for (uint32_t j = 0; j < m; ++j) {
          if (Lookup(pred, (*ordered)[j], j + 1, m).boolean()) {
            kept->push_back((*ordered)[j]);
          }
        }
        std::swap(*ordered, *kept);
      }
      SortUnique(ordered.get());  // back to document order
      step_of.SetRow(y, *ordered);
    }

    // Pass 2: every origin's new frontier is the union of its current
    // frontier members' step rows.
    NodeTable next = NewRelation();
    EvalWorkspace::ScratchIds merged = ws_.AcquireIds();
    for (NodeId x = 0; x < n_; ++x) {
      merged->clear();
      for (NodeId y : rel->Row(x)) {
        const std::span<const NodeId> targets = step_of.Row(y);
        merged->insert(merged->end(), targets.begin(), targets.end());
      }
      SortUnique(merged.get());
      next.SetRow(x, *merged);
    }
    *rel = std::move(next);
    return Status::OK();
  }

  EvalWorkspace& ws_;
  const QueryTree& tree_;
  StepContext& sc_;
  const Document& doc_;
  const NodeId n_;
  const size_t tri_size_;
  std::vector<std::vector<Value>> scalar_tables_;
  std::vector<NodeTable> rel_tables_;
};

}  // namespace

StatusOr<Value> EvalBottomUp(EvalWorkspace& ws,
                             const xpath::CompiledQuery& query,
                             const EvalContext& ctx, StepContext& sc) {
  if (sc.doc.size() > kMaxBottomUpDocument) {
    return StatusOr<Value>(Status::ResourceExhausted(
        "E-up materializes |dom|^3-row tables; refusing documents with more "
        "than " +
        std::to_string(kMaxBottomUpDocument) +
        " nodes (use MINCONTEXT/OPTMINCONTEXT instead)"));
  }
  BottomUpEvaluator evaluator(ws, query.tree(), sc);
  XPE_RETURN_IF_ERROR(evaluator.Build(query.root()));
  return evaluator.Result(ctx);
}

}  // namespace xpe::internal
