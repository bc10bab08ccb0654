#include "src/core/functions.h"

#include <cmath>
#include <string_view>

#include "src/common/numeric.h"
#include "src/common/str_util.h"

namespace xpe {

using xpath::BinOp;
using xpath::FunctionId;

bool CompareNumbers(BinOp op, double lhs, double rhs) {
  switch (op) {
    case BinOp::kEq:
      return lhs == rhs;
    case BinOp::kNeq:
      return lhs != rhs;
    case BinOp::kLt:
      return lhs < rhs;
    case BinOp::kLe:
      return lhs <= rhs;
    case BinOp::kGt:
      return lhs > rhs;
    case BinOp::kGe:
      return lhs >= rhs;
    default:
      return false;
  }
}

namespace {

bool CompareStrings(BinOp op, const std::string& lhs, const std::string& rhs) {
  // Order comparisons on strings go through numbers (Figure 1's GtOp row);
  // only the equality operators compare text.
  switch (op) {
    case BinOp::kEq:
      return lhs == rhs;
    case BinOp::kNeq:
      return lhs != rhs;
    default:
      return CompareNumbers(op, XPathStringToNumber(lhs),
                            XPathStringToNumber(rhs));
  }
}

bool CompareBooleans(BinOp op, bool lhs, bool rhs) {
  switch (op) {
    case BinOp::kEq:
      return lhs == rhs;
    case BinOp::kNeq:
      return lhs != rhs;
    default:
      return CompareNumbers(op, lhs ? 1.0 : 0.0, rhs ? 1.0 : 0.0);
  }
}

/// strval(node) == text without materializing strval: an element's text
/// nodes are compared chunk by chunk, stopping at the first mismatch.
bool StringValueEquals(const xml::Document& doc, xml::NodeId node,
                       std::string_view text) {
  if (doc.kind(node) != xml::NodeKind::kRoot && !doc.IsElement(node)) {
    return doc.content(node) == text;
  }
  size_t matched = 0;
  for (xml::NodeId n = node + 1; n < doc.subtree_end(node); ++n) {
    if (!doc.IsText(n)) continue;
    const std::string_view chunk = doc.content(n);
    if (text.substr(matched, chunk.size()) != chunk) return false;
    matched += chunk.size();
  }
  return matched == text.size();
}

/// S RelOp v with the node-set on the left (mirror the operator to call
/// with the node-set on the right).
bool CompareNodeSetScalar(const xml::Document& doc, BinOp op,
                          const NodeSet& nodes, const Value& scalar) {
  if (scalar.type() == ValueType::kBoolean) {
    // F[[RelOp : nset × bool]](S, b) := F[[boolean]](S) RelOp b.
    return CompareBooleans(op, !nodes.empty(), scalar.boolean());
  }
  const NodeScalarTest test(op, scalar);
  for (xml::NodeId n : nodes) {
    if (test(doc, n)) return true;
  }
  return false;
}

}  // namespace

BinOp MirrorOp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

NodeScalarTest::NodeScalarTest(BinOp op, const Value& scalar)
    : op_(op),
      compare_text_(scalar.type() == ValueType::kString &&
                    (op == BinOp::kEq || op == BinOp::kNeq)) {
  if (compare_text_) {
    text_ = scalar.string();
  } else if (scalar.type() == ValueType::kString) {
    number_ = XPathStringToNumber(scalar.string());
  } else {
    number_ = scalar.number();
  }
}

bool NodeScalarTest::operator()(const xml::Document& doc,
                                xml::NodeId node) const {
  if (!compare_text_) {
    return CompareNumbers(op_, doc.NumberValue(node), number_);
  }
  return StringValueEquals(doc, node, text_) == (op_ == BinOp::kEq);
}

bool EvalComparison(const xml::Document& doc, BinOp op, const Value& lhs,
                    const Value& rhs) {
  const bool lns = lhs.is_node_set();
  const bool rns = rhs.is_node_set();
  if (lns && rns) {
    // Existential over both sides. Equality compares string-values; order
    // operators compare their numbers (Figure 1 + [18] §3.4).
    for (xml::NodeId n1 : lhs.node_set()) {
      if (op == BinOp::kEq || op == BinOp::kNeq) {
        const std::string s1 = doc.StringValue(n1);
        for (xml::NodeId n2 : rhs.node_set()) {
          if (CompareStrings(op, s1, doc.StringValue(n2))) return true;
        }
      } else {
        const double v1 = doc.NumberValue(n1);
        for (xml::NodeId n2 : rhs.node_set()) {
          if (CompareNumbers(op, v1, doc.NumberValue(n2))) return true;
        }
      }
    }
    return false;
  }
  if (lns) return CompareNodeSetScalar(doc, op, lhs.node_set(), rhs);
  if (rns) {
    return CompareNodeSetScalar(doc, MirrorOp(op), rhs.node_set(), lhs);
  }

  // Scalar × scalar.
  if (op == BinOp::kEq || op == BinOp::kNeq) {
    if (lhs.type() == ValueType::kBoolean ||
        rhs.type() == ValueType::kBoolean) {
      return CompareBooleans(op, lhs.ToBoolean(), rhs.ToBoolean());
    }
    if (lhs.type() == ValueType::kNumber ||
        rhs.type() == ValueType::kNumber) {
      return CompareNumbers(op, lhs.ToNumber(doc), rhs.ToNumber(doc));
    }
    return CompareStrings(op, lhs.ToString(doc), rhs.ToString(doc));
  }
  // GtOp over scalars always compares numbers.
  return CompareNumbers(op, lhs.ToNumber(doc), rhs.ToNumber(doc));
}

double EvalArithmetic(BinOp op, double lhs, double rhs) {
  switch (op) {
    case BinOp::kAdd:
      return lhs + rhs;
    case BinOp::kSub:
      return lhs - rhs;
    case BinOp::kMul:
      return lhs * rhs;
    case BinOp::kDiv:
      return lhs / rhs;  // IEEE: x/0 is ±Infinity, 0/0 is NaN
    case BinOp::kMod:
      return std::fmod(lhs, rhs);  // sign of the dividend, as specified
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

StatusOr<Value> ApplyFunction(const xml::Document& doc, FunctionId fn,
                              const std::vector<Value>& args) {
  switch (fn) {
    case FunctionId::kCount:
      return Value::Number(static_cast<double>(args[0].node_set().size()));
    case FunctionId::kSum: {
      double total = 0;
      for (xml::NodeId n : args[0].node_set()) total += doc.NumberValue(n);
      return Value::Number(total);
    }
    case FunctionId::kId: {
      // Normalization rewrites node-set arguments into the id-axis, so
      // only the string form arrives here — but accept node-sets anyway
      // (the naive engine may skip normalization in tests).
      if (args[0].is_node_set()) {
        std::vector<xml::NodeId> out;
        for (xml::NodeId n : args[0].node_set()) {
          for (xml::NodeId t : doc.DerefIds(doc.StringValue(n))) {
            out.push_back(t);
          }
        }
        return Value::Nodes(NodeSet(std::move(out)));
      }
      return Value::Nodes(NodeSet(doc.DerefIds(args[0].ToString(doc))));
    }
    case FunctionId::kLocalName:
    case FunctionId::kName: {
      // No namespaces: name() == local-name(). Empty for the root, text
      // and comment nodes; the target for PIs; the tag/attribute name
      // otherwise.
      const NodeSet& s = args[0].node_set();
      if (s.empty()) return Value::String("");
      return Value::String(std::string(doc.name(s.First())));
    }
    case FunctionId::kString:
      return Value::String(args[0].ToString(doc));
    case FunctionId::kConcat: {
      std::string out;
      for (const Value& v : args) out += v.ToString(doc);
      return Value::String(std::move(out));
    }
    case FunctionId::kStartsWith:
      return Value::Boolean(StartsWith(args[0].string(), args[1].string()));
    case FunctionId::kContains:
      return Value::Boolean(Contains(args[0].string(), args[1].string()));
    case FunctionId::kSubstringBefore:
      return Value::String(
          std::string(SubstringBefore(args[0].string(), args[1].string())));
    case FunctionId::kSubstringAfter:
      return Value::String(
          std::string(SubstringAfter(args[0].string(), args[1].string())));
    case FunctionId::kSubstring:
      return Value::String(XPathSubstring(args[0].string(), args[1].number(),
                                          args.size() > 2 ? args[2].number()
                                                          : 0,
                                          args.size() > 2));
    case FunctionId::kStringLength:
      return Value::Number(static_cast<double>(args[0].string().size()));
    case FunctionId::kNormalizeSpace:
      return Value::String(NormalizeSpace(args[0].string()));
    case FunctionId::kTranslate:
      return Value::String(
          Translate(args[0].string(), args[1].string(), args[2].string()));
    case FunctionId::kBoolean:
      return Value::Boolean(args[0].ToBoolean());
    case FunctionId::kNot:
      return Value::Boolean(!args[0].boolean());
    case FunctionId::kTrue:
      return Value::Boolean(true);
    case FunctionId::kFalse:
      return Value::Boolean(false);
    case FunctionId::kNumber:
      return Value::Number(args[0].ToNumber(doc));
    case FunctionId::kFloor:
      return Value::Number(std::floor(args[0].number()));
    case FunctionId::kCeiling:
      return Value::Number(std::ceil(args[0].number()));
    case FunctionId::kRound:
      return Value::Number(XPathRound(args[0].number()));
    case FunctionId::kLang: {
      // lang(s, ctx): true iff the xml:lang in scope at the context node
      // equals s or is a sublanguage of it ([18] §4.3), ASCII
      // case-insensitive.
      const NodeSet& ctx = args[1].node_set();
      if (ctx.empty()) return Value::Boolean(false);
      xml::NodeId node = ctx.First();
      std::string in_scope;
      for (xml::NodeId n = node; n != xml::kInvalidNodeId; n = doc.parent(n)) {
        if (auto v = doc.Attribute(n, "xml:lang")) {
          in_scope = std::string(*v);
          break;
        }
      }
      if (in_scope.empty()) return Value::Boolean(false);
      const std::string& want = args[0].string();
      auto lower = [](std::string s) {
        for (char& c : s) {
          if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
        }
        return s;
      };
      const std::string have = lower(in_scope);
      const std::string target = lower(want);
      return Value::Boolean(have == target ||
                            (have.size() > target.size() &&
                             have.compare(0, target.size(), target) == 0 &&
                             have[target.size()] == '-'));
    }
    case FunctionId::kLast:
    case FunctionId::kPosition:
      break;
  }
  return Status::Internal(
      "position()/last() must be evaluated by the engine");
}

}  // namespace xpe
