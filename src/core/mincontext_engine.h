#ifndef XPE_CORE_MINCONTEXT_ENGINE_H_
#define XPE_CORE_MINCONTEXT_ENGINE_H_

#include <optional>
#include <span>
#include <vector>

#include "src/axes/node_table.h"
#include "src/core/engine.h"
#include "src/core/evaluator.h"
#include "src/core/functions.h"
#include "src/core/step_common.h"

namespace xpe::internal {

/// A predicate that normalizes to position() = k (number literal k) or
/// position() = last(), in either operand order. The ⟨cp,cs⟩ loop keeps
/// exactly the candidate at position k (the last one), so it can be
/// picked from the axis-ordered list directly. `units` is what the loop
/// charges per candidate: one for the comparison and one per
/// position()/last() call — the literal is a tabled constant.
struct PositionSelector {
  bool last = false;
  double k = 0;
  uint64_t units = 0;
};

/// The MINCONTEXT evaluator of §3/§6, extended with the §4/§5 bottom-up
/// path machinery that turns it into OPTMINCONTEXT. One instance performs
/// one evaluation (tables are query+document specific); all pair-relation
/// storage lives in the session workspace's arena, so a reused Evaluator
/// re-serves the tables from retained memory.
///
/// Table layout follows §3.1's "restriction to the relevant context":
///  - Relev(N) = ∅        → one value;
///  - Relev(N) ⊆ {cn}     → value per context node (≤ |dom| rows);
///  - scalar nodes touching cp/cs are never materialized — they are
///    evaluated per single context inside the ⟨cp,cs⟩ loops;
///  - node-set nodes store per-origin result rows in a flat NodeTable
///    (the pair relations of eval_inner_locpath, ≤ |dom|² cells in
///    total, one contiguous buffer per expression).
class MinContextEngine {
 public:
  /// Charges and counts through `sc`; tables and scratch live in `ws`.
  /// `ablate_outermost_sets` is EvalOptions::ablate_outermost_sets.
  MinContextEngine(EvalWorkspace& ws, const xpath::QueryTree& tree,
                   StepContext& sc, bool ablate_outermost_sets);

  /// Algorithm 6 (optimized=false) / Algorithm 8 (optimized=true).
  StatusOr<Value> Run(const EvalContext& ctx, bool optimized);

 private:
  // --- table storage ----------------------------------------------------
  struct ScalarTable {
    bool const_computed = false;
    Value const_value;
    /// Keyed by context node: 1 + the index of cn's row in `rows`, 0 for
    /// no row yet. Sized lazily; `rows` holds only the computed values,
    /// so a table costs its rows plus one word per node.
    std::vector<uint32_t> row_of;
    std::vector<Value> rows;
    /// Set by EvalBottomUpPath: `bottom_up` holds the boolean row of
    /// *every* node.
    bool bottom_up_done = false;
    std::vector<uint8_t> bottom_up;

    /// cn's row, or null when it has not been computed.
    const Value* Find(xml::NodeId cn) const {
      return row_of.empty() || row_of[cn] == 0 ? nullptr
                                               : &rows[row_of[cn] - 1];
    }
  };

  ScalarTable& scalar_table(xpath::AstId id) { return scalar_tables_[id]; }
  /// The per-origin relation table of a node-set expression, bound to
  /// the session arena on first use (num_keys = |dom|).
  NodeTable& rel_table(xpath::AstId id) {
    NodeTable& t = rel_tables_[id];
    if (!t.initialized()) t.Reset(ws_.arena(), doc_.size());
    return t;
  }

  void StoreScalarRow(xpath::AstId id, xml::NodeId cn, Value v);
  void StoreScalarConst(xpath::AstId id, Value v);
  void StoreRelRow(xpath::AstId id, xml::NodeId origin,
                   std::span<const xml::NodeId> targets);

  uint8_t Relev(xpath::AstId id) const { return tree_.node(id).relev; }
  bool DependsOnPosition(xpath::AstId id) const {
    return (Relev(id) & (xpath::kRelevCp | xpath::kRelevCs)) != 0;
  }
  bool IsNodeSetTyped(xpath::AstId id) const {
    return tree_.node(id).type == xpath::ValueType::kNodeSet;
  }
  /// Whether any of `preds` reads cp/cs, so that its step needs the
  /// ⟨cp,cs⟩ loop of PrepareRows/SelectRow.
  bool AnyPositional(std::span<const xpath::AstId> preds) const;

  // --- §6 procedures ------------------------------------------------------
  /// eval_outermost_locpath: set-valued evaluation of outermost paths.
  /// `limit` is the document-order prefix bound of the early-terminating
  /// result modes (ResultSpec::node_limit): a predicate-free final step
  /// (and each branch of a union) may stop after `limit` emissions —
  /// positional steps and filter predicates need complete candidate
  /// lists, so the limit never crosses them. Inner paths (pair
  /// relations) always evaluate in full.
  StatusOr<NodeSet> EvalOutermostLocpath(xpath::AstId id, const NodeSet& x,
                                         uint64_t limit);

  /// eval_by_cnode_only: fills table(M) for every M below `id` whose value
  /// is independent of cp/cs, for the context nodes in `x`.
  Status EvalByCnodeOnly(xpath::AstId id, const NodeSet& x);

  /// eval_single_context: value of expr(id) at one ⟨cn,cp,cs⟩ triple.
  /// Requires EvalByCnodeOnly(id, {cn}) to have run.
  StatusOr<Value> EvalSingleContext(xpath::AstId id, xml::NodeId cn,
                                    uint32_t cp, uint32_t cs);

  /// The value of the scalar operator node `id` (literal, function call,
  /// binary or unary operator) at ⟨cn,cp,cs⟩ from its operands' values,
  /// charging one context. Tabled operators pass cp = cs = 0.
  StatusOr<Value> EvalOperator(xpath::AstId id, xml::NodeId cn, uint32_t cp,
                               uint32_t cs);

  /// The members of `nodes` that satisfy every one of `preds`, none of
  /// which reads cp/cs: fills the predicates' cn-only tables over
  /// `nodes`, then filters.
  StatusOr<NodeSet> KeepSatisfying(std::span<const xpath::AstId> preds,
                                   NodeSet nodes);

  /// eval_inner_locpath generalization: ensures rel_table rows exist for
  /// all origins in `x` for any node-set-typed expression (paths, unions,
  /// filters, id(s) calls).
  Status EvalInnerNodeSet(xpath::AstId id, const NodeSet& x);

  /// One location step from the origins in `x`: fills `out` (reset to
  /// per-origin keys) with the {(x,y)} pair relation, with predicate
  /// filtering (looped over ⟨cp,cs⟩ when needed). `out` is a transient
  /// arena table owned by the caller.
  Status EvalStepRelation(xpath::AstId step_id, const NodeSet& x,
                          NodeTable* out);

  /// χ(X) ∩ T(t) for the step node `step_id`: the document index's
  /// postings when the step is index-eligible and sc_.use_index is on,
  /// O(|D|) scan otherwise. `limit` bounds the image to its
  /// document-order-first nodes (kNoNodeLimit = full image). Addressed
  /// by AstId so profiling rows attribute to the plan's step nodes.
  NodeSet StepImage(xpath::AstId step_id, const NodeSet& x,
                    uint64_t limit = kNoNodeLimit);

  /// Shared predicate filtering of one origin's ordered candidate list,
  /// in place (scratch comes from the workspace pool). A predicate of the
  /// form position() = k or position() = last() picks its candidate in
  /// closed form and charges the units the ⟨cp,cs⟩ loop would have.
  Status FilterByPredicatesSingle(std::span<const xpath::AstId> preds,
                                  std::vector<xml::NodeId>* candidates);

  /// The image of a step with positional predicates, prepared once for
  /// the SelectRow calls of all its origins; PrepareRows also fills its
  /// predicates' cn-only tables over the image.
  struct StepRows {
    xpath::AstId step_id;
    std::span<const xml::NodeId> image;
    /// Set on the sibling axes when the first predicate is a selector:
    /// then `by_parent` holds `image` ordered by (parent, document
    /// order), so an origin's row length and its pick are two binary
    /// searches instead of a row.
    std::optional<PositionSelector> rank_by;
    EvalWorkspace::ScratchIds by_parent;
  };
  StatusOr<StepRows> PrepareRows(xpath::AstId step_id, const NodeSet& image);

  /// One origin's row of a step with positional predicates: its
  /// candidates in the image (AppendAxisRow, or the rank selection
  /// above), filtered with positions counted in axis order, left in
  /// `row` in document order.
  Status SelectRow(const StepRows& rows, xml::NodeId origin,
                   std::vector<xml::NodeId>* row);

  // --- §4/§5 bottom-up machinery (wadler.cc) ------------------------------
  /// Collects bottom_up_eligible nodes innermost-first and evaluates them.
  Status RunBottomUpPasses();

  /// eval_bottomup_path: fills scalar_table(id) with a boolean row for
  /// every node of the document.
  Status EvalBottomUpPath(xpath::AstId id);

  /// propagate_path_backwards over the steps of `path_id`, starting from
  /// target set `y`. Returns the origin set X.
  StatusOr<NodeSet> PropagatePathBackwards(xpath::AstId path_id, NodeSet y);

  /// The nodes a comparison π RelOp s must test to seed Y: those passing
  /// the node test of π's last step (its postings when the index is on
  /// and the test is postings-backed), since PropagatePathBackwards
  /// restricts Y to that test first. Every node when π has no step.
  void SeedCandidates(xpath::AstId path_id, std::vector<xml::NodeId>* out);

  /// Evaluates a context-independent node-set expression once (the head
  /// of a path propagated backwards).
  StatusOr<NodeSet> EvalContextFreeNodeSet(xpath::AstId id);

  EvalWorkspace& ws_;
  const xpath::QueryTree& tree_;
  /// The budget meter, stats/profile sinks, index and parallelism
  /// configuration, and the node limit applied to the outermost path.
  StepContext& sc_;
  const xml::Document& doc_;
  bool ablate_outermost_sets_;

  std::vector<ScalarTable> scalar_tables_;
  std::vector<NodeTable> rel_tables_;
};

}  // namespace xpe::internal

#endif  // XPE_CORE_MINCONTEXT_ENGINE_H_
