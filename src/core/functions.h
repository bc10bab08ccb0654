#ifndef XPE_CORE_FUNCTIONS_H_
#define XPE_CORE_FUNCTIONS_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/value.h"
#include "src/xpath/ast.h"

namespace xpe {

/// The effective semantics function F of the paper's Figure 1, shared by
/// every engine so that all five evaluators agree on edge cases by
/// construction.

/// F for comparison operators, with the full polymorphic dispatch of
/// Figure 1 (existential semantics over node-sets; equality compares
/// strings, order comparisons compare numbers, booleans dominate
/// equality). `op` must be a comparison.
bool EvalComparison(const xml::Document& doc, xpath::BinOp op,
                    const Value& lhs, const Value& rhs);

/// `op` with its operands swapped (a < b iff b > a); = and != are
/// symmetric. `op` must be a comparison.
xpath::BinOp MirrorOp(xpath::BinOp op);

/// `node RelOp s` for one node on the left and a number or string s on
/// the right: the per-node test of Figure 1's nset × scalar rows, which
/// hold when some node of the set passes it. The operand is reduced once
/// at construction — to a number for number operands and for order
/// comparisons, to the string itself for = and != with a string — so
/// each test reads the node's cached NumberValue or streams its text
/// against the string, allocating nothing per node. EvalComparison and
/// OPTMINCONTEXT's bottom-up seeding both test nodes through it.
class NodeScalarTest {
 public:
  /// `scalar` must be a number or a string.
  NodeScalarTest(xpath::BinOp op, const Value& scalar);

  bool operator()(const xml::Document& doc, xml::NodeId node) const;

 private:
  xpath::BinOp op_;
  bool compare_text_;  // string (in)equality; numbers otherwise
  double number_ = 0;
  std::string text_;
};

/// F for arithmetic (+, -, *, div, mod) over IEEE doubles; div is IEEE
/// division, mod keeps the dividend's sign (XPath 'mod' = fmod).
double EvalArithmetic(xpath::BinOp op, double lhs, double rhs);

/// Numeric comparison with IEEE NaN semantics (all comparisons with NaN
/// are false except !=).
bool CompareNumbers(xpath::BinOp op, double lhs, double rhs);

/// F for every library function that maps plain values to a value:
/// count/sum/id(string)/local-name/name/string/concat/starts-with/
/// contains/substring-*/string-length/normalize-space/translate/boolean/
/// not/true/false/number/floor/ceiling/round.
/// position() and last() are context functions handled by the engines;
/// passing them here is an internal error.
StatusOr<Value> ApplyFunction(const xml::Document& doc, xpath::FunctionId fn,
                              const std::vector<Value>& args);

}  // namespace xpe

#endif  // XPE_CORE_FUNCTIONS_H_
