#include "src/xpath/fragments.h"

namespace xpe::xpath {

const char* FragmentToString(Fragment f) {
  switch (f) {
    case Fragment::kCoreXPath:
      return "CoreXPath";
    case Fragment::kExtendedWadler:
      return "ExtendedWadler";
    case Fragment::kFullXPath:
      return "FullXPath";
  }
  return "?";
}

namespace {

// --- Core XPath (Definition 12) -------------------------------------------

bool CorePath(QueryTree* tree, AstId id);

/// pred ::= pred and pred | pred or pred | not(pred) | cxp | (pred).
/// On the normalized tree a bare cxp predicate appears as boolean(π).
bool CorePredicate(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  switch (n.kind) {
    case ExprKind::kBinaryOp:
      if (n.op != BinOp::kAnd && n.op != BinOp::kOr) return false;
      return CorePredicate(tree, n.children[0]) &&
             CorePredicate(tree, n.children[1]);
    case ExprKind::kFunctionCall:
      if (n.fn == FunctionId::kNot) {
        return CorePredicate(tree, n.children[0]);
      }
      if (n.fn == FunctionId::kBoolean) {
        const AstNode& arg = tree->node(n.children[0]);
        return arg.kind == ExprKind::kPath && CorePath(tree, n.children[0]);
      }
      return false;
    default:
      return false;
  }
}

bool CorePath(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  if (n.kind != ExprKind::kPath || n.has_head) return false;
  for (size_t i = 0; i < n.children.size(); ++i) {
    AstNode& step = tree->node(n.children[i]);
    if (step.kind != ExprKind::kStep) return false;
    if (step.axis == Axis::kId) return false;  // id is not Core XPath
    bool preds_ok = true;
    for (AstId pred : step.children) {
      preds_ok = preds_ok && CorePredicate(tree, pred);
    }
    step.core_xpath = preds_ok;
    if (!preds_ok) {
      n.core_xpath = false;
      return false;
    }
  }
  n.core_xpath = true;
  return true;
}

/// Marks core_xpath on every node where it applies (paths everywhere in
/// the tree, so OPTMINCONTEXT can fast-path core subqueries).
void MarkCore(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  for (AstId child : n.children) MarkCore(tree, child);
  if (n.kind == ExprKind::kPath) {
    n.core_xpath = CorePath(tree, id);
  } else if (n.kind == ExprKind::kFunctionCall &&
             (n.fn == FunctionId::kBoolean || n.fn == FunctionId::kNot)) {
    n.core_xpath = CorePredicate(tree, id);
  } else if (n.kind == ExprKind::kBinaryOp &&
             (n.op == BinOp::kAnd || n.op == BinOp::kOr)) {
    n.core_xpath = CorePredicate(tree, id);
  }
}

// --- Extended Wadler (Restrictions 1-3) ------------------------------------

bool Wadler(QueryTree* tree, AstId id);

/// Restriction 1's banned document-data extractors. The conversions
/// string()/number() that Normalize inserts around *constant* arguments
/// are permitted: R1 exists to keep scalar sizes data-independent, and
/// constants trivially satisfy that (the Restriction 1 refinement under
/// "Paper notes" in docs/architecture.md).
bool BannedByR1(QueryTree* tree, const AstNode& n) {
  switch (n.fn) {
    case FunctionId::kLocalName:
    case FunctionId::kName:
    case FunctionId::kStringLength:
    case FunctionId::kNormalizeSpace:
      return true;
    case FunctionId::kString:
    case FunctionId::kNumber:
      return !n.children.empty() && tree->node(n.children[0]).relev != 0;
    default:
      return false;
  }
}

bool WadlerPath(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  if (n.kind != ExprKind::kPath) return false;
  size_t step_begin = 0;
  if (n.has_head) {
    // Only context-independent heads (e.g. id('k')) can anchor a
    // backward propagation.
    if (tree->node(n.children[0]).relev != 0 ||
        !Wadler(tree, n.children[0])) {
      return false;
    }
    step_begin = 1;
  }
  for (size_t i = step_begin; i < n.children.size(); ++i) {
    AstNode& step = tree->node(n.children[i]);
    if (step.kind != ExprKind::kStep) return false;
    for (AstId pred : step.children) {
      if (!Wadler(tree, pred)) return false;
    }
  }
  return true;
}

bool Wadler(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  bool ok = true;
  switch (n.kind) {
    case ExprKind::kNumberLiteral:
    case ExprKind::kStringLiteral:
      ok = true;
      break;
    case ExprKind::kVariable:
      ok = false;
      break;
    case ExprKind::kFunctionCall:
      if (BannedByR1(tree, n)) {
        ok = false;
      } else if (n.fn == FunctionId::kCount || n.fn == FunctionId::kSum) {
        ok = false;  // Restriction 2
      } else if (n.fn == FunctionId::kId) {
        // Restriction 3: id(s) with context-independent s. (id over
        // node-sets was rewritten to id-axis steps by Normalize.)
        ok = tree->node(n.children[0]).relev == 0 &&
             Wadler(tree, n.children[0]);
      } else {
        ok = true;
        for (AstId child : n.children) ok = ok && Wadler(tree, child);
      }
      break;
    case ExprKind::kBinaryOp: {
      if (BinOpIsComparison(n.op)) {
        const AstNode& lhs = tree->node(n.children[0]);
        const AstNode& rhs = tree->node(n.children[1]);
        const bool lns = lhs.type == ValueType::kNodeSet;
        const bool rns = rhs.type == ValueType::kNodeSet;
        if (lns && rns) {
          ok = false;  // Restriction 2: nset RelOp nset
        } else if (lns || rns) {
          const AstId nset = n.children[lns ? 0 : 1];
          const AstId scalar = n.children[lns ? 1 : 0];
          // Restriction 2: the scalar side must not depend on any context.
          ok = tree->node(scalar).relev == 0 && Wadler(tree, scalar) &&
               WadlerPath(tree, nset);
        } else {
          ok = Wadler(tree, n.children[0]) && Wadler(tree, n.children[1]);
        }
      } else {
        ok = Wadler(tree, n.children[0]) && Wadler(tree, n.children[1]);
      }
      break;
    }
    case ExprKind::kUnaryMinus:
      ok = Wadler(tree, n.children[0]);
      break;
    case ExprKind::kUnion:
      ok = true;
      for (AstId child : n.children) ok = ok && Wadler(tree, child);
      break;
    case ExprKind::kPath:
      ok = WadlerPath(tree, id);
      break;
    case ExprKind::kStep:
      ok = true;  // checked via WadlerPath
      break;
    case ExprKind::kFilter:
      ok = false;  // filter expressions are outside the fragment
      break;
  }
  n.wadler = ok;
  return ok;
}

/// Marks the §5 bottom-up-eligible occurrences: boolean(π) and
/// π RelOp s nodes whose path side is a Wadler path.
void MarkBottomUp(QueryTree* tree, AstId id) {
  AstNode& n = tree->node(id);
  for (AstId child : n.children) MarkBottomUp(tree, child);
  if (n.kind == ExprKind::kFunctionCall && n.fn == FunctionId::kBoolean) {
    const AstNode& arg = tree->node(n.children[0]);
    if (arg.kind == ExprKind::kPath && WadlerPath(tree, n.children[0])) {
      n.bottom_up_eligible = true;
    }
  } else if (n.kind == ExprKind::kBinaryOp && BinOpIsComparison(n.op)) {
    const AstNode& lhs = tree->node(n.children[0]);
    const AstNode& rhs = tree->node(n.children[1]);
    const bool lns = lhs.type == ValueType::kNodeSet;
    const bool rns = rhs.type == ValueType::kNodeSet;
    if (lns != rns) {
      const AstId nset = n.children[lns ? 0 : 1];
      const AstId scalar = n.children[lns ? 1 : 0];
      if (tree->node(nset).kind == ExprKind::kPath &&
          WadlerPath(tree, nset) && tree->node(scalar).relev == 0 &&
          Wadler(tree, scalar)) {
        n.bottom_up_eligible = true;
      }
    }
  }
}

}  // namespace

void ClassifyFragments(QueryTree* tree) {
  MarkCore(tree, tree->root());
  Wadler(tree, tree->root());
  MarkBottomUp(tree, tree->root());
}

Fragment ClassifyQuery(const QueryTree& tree) {
  const AstNode& root = tree.node(tree.root());
  // Definition 12's start production is a location path: boolean-typed
  // expressions over core paths (e.g. the whole query "boolean(//b)") are
  // not themselves Core XPath queries.
  if (root.kind == ExprKind::kPath && root.core_xpath) {
    return Fragment::kCoreXPath;
  }
  if (root.wadler) return Fragment::kExtendedWadler;
  return Fragment::kFullXPath;
}

}  // namespace xpe::xpath
