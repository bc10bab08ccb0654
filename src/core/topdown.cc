// E↓ of Definition 2 (recalled from [11]): top-down evaluation that is
// vectorized over *lists* of contexts. Unlike MINCONTEXT it neither
// deduplicates repeated contexts nor restricts tables to the relevant
// context, which is exactly why its bounds are one |D| factor worse —
// keep that in mind before "optimizing" this file; it is a faithful
// baseline, not a hot path.

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

struct Ctx {
  NodeId cn;
  uint32_t cp;
  uint32_t cs;
};

class TopDownEvaluator {
 public:
  TopDownEvaluator(EvalWorkspace& ws, const QueryTree& tree, StepContext& sc)
      : ws_(ws), tree_(tree), sc_(sc), doc_(sc.doc) {}

  /// E↓[[e]](c1,...,cl): one result per context.
  StatusOr<std::vector<Value>> EvalList(AstId id,
                                        const std::vector<Ctx>& ctxs) {
    XPE_RETURN_IF_ERROR(sc_.Charge(ctxs.size()));
    const AstNode& n = tree_.node(id);
    switch (n.kind) {
      case ExprKind::kNumberLiteral:
        return Replicate(Value::Number(n.number), ctxs.size());
      case ExprKind::kStringLiteral:
        return Replicate(Value::String(n.string), ctxs.size());
      case ExprKind::kVariable:
        return StatusOr<std::vector<Value>>(
            Status::Internal("variable survived normalization"));
      case ExprKind::kFunctionCall: {
        if (n.fn == FunctionId::kPosition) {
          std::vector<Value> out;
          out.reserve(ctxs.size());
          for (const Ctx& c : ctxs) {
            out.push_back(Value::Number(static_cast<double>(c.cp)));
          }
          return out;
        }
        if (n.fn == FunctionId::kLast) {
          std::vector<Value> out;
          out.reserve(ctxs.size());
          for (const Ctx& c : ctxs) {
            out.push_back(Value::Number(static_cast<double>(c.cs)));
          }
          return out;
        }
        // F[[Op]]⟨⟩: evaluate each argument over the whole context list,
        // then apply F pointwise.
        std::vector<std::vector<Value>> arg_lists;
        arg_lists.reserve(n.children.size());
        for (AstId child : n.children) {
          XPE_ASSIGN_OR_RETURN(std::vector<Value> vs, EvalList(child, ctxs));
          arg_lists.push_back(std::move(vs));
        }
        std::vector<Value> out;
        out.reserve(ctxs.size());
        std::vector<Value> args(n.children.size());
        for (size_t i = 0; i < ctxs.size(); ++i) {
          for (size_t a = 0; a < arg_lists.size(); ++a) {
            args[a] = arg_lists[a][i];
          }
          XPE_ASSIGN_OR_RETURN(Value v, ApplyFunction(doc_, n.fn, args));
          out.push_back(std::move(v));
        }
        return out;
      }
      case ExprKind::kBinaryOp: {
        XPE_ASSIGN_OR_RETURN(std::vector<Value> lhs,
                             EvalList(n.children[0], ctxs));
        XPE_ASSIGN_OR_RETURN(std::vector<Value> rhs,
                             EvalList(n.children[1], ctxs));
        std::vector<Value> out;
        out.reserve(ctxs.size());
        for (size_t i = 0; i < ctxs.size(); ++i) {
          if (n.op == BinOp::kAnd) {
            out.push_back(
                Value::Boolean(lhs[i].boolean() && rhs[i].boolean()));
          } else if (n.op == BinOp::kOr) {
            out.push_back(
                Value::Boolean(lhs[i].boolean() || rhs[i].boolean()));
          } else if (BinOpIsComparison(n.op)) {
            out.push_back(
                Value::Boolean(EvalComparison(doc_, n.op, lhs[i], rhs[i])));
          } else {
            out.push_back(Value::Number(
                EvalArithmetic(n.op, lhs[i].number(), rhs[i].number())));
          }
        }
        return out;
      }
      case ExprKind::kUnaryMinus: {
        XPE_ASSIGN_OR_RETURN(std::vector<Value> vs,
                             EvalList(n.children[0], ctxs));
        std::vector<Value> out;
        out.reserve(vs.size());
        for (const Value& v : vs) out.push_back(Value::Number(-v.number()));
        return out;
      }
      case ExprKind::kUnion: {
        XPE_ASSIGN_OR_RETURN(std::vector<Value> lhs,
                             EvalList(n.children[0], ctxs));
        XPE_ASSIGN_OR_RETURN(std::vector<Value> rhs,
                             EvalList(n.children[1], ctxs));
        std::vector<Value> out;
        out.reserve(ctxs.size());
        for (size_t i = 0; i < ctxs.size(); ++i) {
          out.push_back(
              Value::Nodes(lhs[i].node_set().Union(rhs[i].node_set())));
        }
        return out;
      }
      case ExprKind::kPath:
      case ExprKind::kFilter: {
        // S↓[[π]]({x1},...,{xl}).
        std::vector<NodeSet> starts;
        starts.reserve(ctxs.size());
        for (const Ctx& c : ctxs) starts.push_back(NodeSet::Single(c.cn));
        XPE_ASSIGN_OR_RETURN(std::vector<NodeSet> sets,
                             EvalPathList(id, std::move(starts)));
        std::vector<Value> out;
        out.reserve(sets.size());
        for (NodeSet& s : sets) out.push_back(Value::Nodes(std::move(s)));
        return out;
      }
      case ExprKind::kStep:
        break;
    }
    return StatusOr<std::vector<Value>>(
        Status::Internal("unhandled kind in E-down"));
  }

  /// S↓: list of node sets in, list of node sets out.
  StatusOr<std::vector<NodeSet>> EvalPathList(AstId id,
                                              std::vector<NodeSet> xs) {
    const AstNode& n = tree_.node(id);
    switch (n.kind) {
      case ExprKind::kPath: {
        size_t step_begin = 0;
        if (n.has_head) {
          // Head values depend on the origin contexts.
          std::vector<Ctx> ctxs;
          ctxs.reserve(xs.size());
          for (const NodeSet& x : xs) {
            // Heads are node-set expressions evaluated per start set; each
            // start set here is a singleton context node.
            ctxs.push_back(Ctx{x.empty() ? doc_.root() : x.First(), 1, 1});
          }
          XPE_ASSIGN_OR_RETURN(std::vector<Value> heads,
                               EvalList(n.children[0], ctxs));
          for (size_t i = 0; i < xs.size(); ++i) {
            xs[i] = heads[i].node_set();
          }
          step_begin = 1;
        } else if (n.absolute) {
          // S↓[[/π]](X1,...,Xk) := S↓[[π]]({root},...,{root}).
          for (NodeSet& x : xs) x = NodeSet::Single(doc_.root());
        }
        for (size_t s = step_begin; s < n.children.size(); ++s) {
          XPE_ASSIGN_OR_RETURN(xs, EvalStepList(n.children[s], std::move(xs)));
        }
        return xs;
      }
      case ExprKind::kUnion: {
        XPE_ASSIGN_OR_RETURN(std::vector<NodeSet> lhs,
                             EvalPathList(n.children[0], xs));
        XPE_ASSIGN_OR_RETURN(std::vector<NodeSet> rhs,
                             EvalPathList(n.children[1], std::move(xs)));
        for (size_t i = 0; i < lhs.size(); ++i) {
          lhs[i] = lhs[i].Union(rhs[i]);
        }
        return lhs;
      }
      case ExprKind::kFilter: {
        XPE_ASSIGN_OR_RETURN(std::vector<NodeSet> heads,
                             EvalPathList(n.children[0], std::move(xs)));
        for (size_t p = 1; p < n.children.size(); ++p) {
          // Contexts: every (list, member) pair, positions in document
          // order within each list.
          std::vector<Ctx> ctxs;
          std::vector<std::pair<size_t, NodeId>> flat;
          for (size_t i = 0; i < heads.size(); ++i) {
            const uint32_t m = static_cast<uint32_t>(heads[i].size());
            uint32_t j = 1;
            for (NodeId y : heads[i]) {
              ctxs.push_back(Ctx{y, j++, m});
              flat.emplace_back(i, y);
            }
          }
          sc_.stats().AddCells(ctxs.size());
          XPE_ASSIGN_OR_RETURN(std::vector<Value> keep,
                               EvalList(n.children[p], ctxs));
          std::vector<NodeSet> filtered(heads.size());
          for (size_t k = 0; k < flat.size(); ++k) {
            if (keep[k].boolean()) {
              filtered[flat[k].first].PushBackOrdered(flat[k].second);
            }
          }
          heads = std::move(filtered);
        }
        return heads;
      }
      case ExprKind::kFunctionCall: {
        // id(s) as a path-producing expression.
        std::vector<Ctx> ctxs;
        ctxs.reserve(xs.size());
        for (const NodeSet& x : xs) {
          ctxs.push_back(Ctx{x.empty() ? doc_.root() : x.First(), 1, 1});
        }
        XPE_ASSIGN_OR_RETURN(std::vector<Value> vals, EvalList(id, ctxs));
        std::vector<NodeSet> out;
        out.reserve(vals.size());
        for (Value& v : vals) out.push_back(v.node_set());
        return out;
      }
      default:
        return StatusOr<std::vector<NodeSet>>(
            Status::Internal("unhandled path kind in S-down"));
    }
  }

 private:
  static std::vector<Value> Replicate(Value v, size_t count) {
    return std::vector<Value>(count, std::move(v));
  }

  /// One location step applied to a list of start sets: the S-relation
  /// body of Definition 2's first S↓ equation. The per-origin pair
  /// relation S is a flat arena NodeTable — no per-row heap vectors.
  StatusOr<std::vector<NodeSet>> EvalStepList(AstId step_id,
                                              std::vector<NodeSet> xs) {
    const AstNode& step = tree_.node(step_id);

    // S := {⟨x,y⟩ | x ∈ ∪Xi, xχy, y ∈ T(t)}, grouped by x.
    EvalWorkspace::ScratchIds x_all = ws_.AcquireIds();
    for (const NodeSet& x : xs) {
      x_all->insert(x_all->end(), x.begin(), x.end());
    }
    SortUnique(x_all.get());
    NodeTable s_rel;
    s_rel.Reset(ws_.arena(), doc_.size());
    // One kernel for the whole per-origin loop: the postings lookup
    // happens once per step, not once per origin.
    const StepKernel kernel(sc_, step, step_id);
    {
      EvalWorkspace::ScratchIds targets = ws_.AcquireIds();
      for (NodeId x : *x_all) {
        kernel.EvalInto({&x, 1}, targets.get());
        sc_.stats().AddCells(targets->size());
        s_rel.SetRow(x, *targets);
      }
    }

    // Predicate rounds over the pair set.
    EvalWorkspace::ScratchIds ordered = ws_.AcquireIds();
    for (AstId pred : step.children) {
      std::vector<Ctx> ctxs;
      std::vector<std::pair<size_t, NodeId>> flat;  // (origin index, y)
      for (size_t g = 0; g < x_all->size(); ++g) {
        OrderForAxisInto(step.axis, s_rel.Row((*x_all)[g]), ordered.get());
        const uint32_t m = static_cast<uint32_t>(ordered->size());
        for (uint32_t j = 0; j < m; ++j) {
          ctxs.push_back(Ctx{(*ordered)[j], j + 1, m});
          flat.emplace_back(g, (*ordered)[j]);
        }
      }
      XPE_ASSIGN_OR_RETURN(std::vector<Value> keep, EvalList(pred, ctxs));
      NodeTable filtered;
      filtered.Reset(ws_.arena(), doc_.size());
      size_t k = 0;
      for (size_t g = 0; g < x_all->size(); ++g) {
        ordered->clear();
        for (; k < flat.size() && flat[k].first == g; ++k) {
          if (keep[k].boolean()) ordered->push_back(flat[k].second);
        }
        SortUnique(ordered.get());  // reverse axes were visited backwards
        filtered.SetRow((*x_all)[g], *ordered);
      }
      s_rel = std::move(filtered);
    }

    // Ri := {y | ⟨x,y⟩ ∈ S, x ∈ Xi}.
    std::vector<NodeSet> out(xs.size());
    EvalWorkspace::ScratchIds merged = ws_.AcquireIds();
    for (size_t i = 0; i < xs.size(); ++i) {
      s_rel.UnionRowsInto(xs[i].ids(), merged.get());
      out[i] = NodeSet::FromSorted(*merged);
    }
    return out;
  }

  EvalWorkspace& ws_;
  const QueryTree& tree_;
  StepContext& sc_;
  const Document& doc_;
};

}  // namespace

StatusOr<Value> EvalTopDown(EvalWorkspace& ws,
                            const xpath::CompiledQuery& query,
                            const EvalContext& ctx, StepContext& sc) {
  TopDownEvaluator evaluator(ws, query.tree(), sc);
  const xpath::AstNode& root = query.tree().node(query.root());
  if (root.type == xpath::ValueType::kNodeSet) {
    XPE_ASSIGN_OR_RETURN(
        std::vector<NodeSet> sets,
        evaluator.EvalPathList(query.root(), {NodeSet::Single(ctx.node)}));
    return Value::Nodes(std::move(sets[0]));
  }
  XPE_ASSIGN_OR_RETURN(
      std::vector<Value> values,
      evaluator.EvalList(query.root(), {{ctx.node, ctx.position, ctx.size}}));
  return std::move(values[0]);
}

}  // namespace xpe::internal
