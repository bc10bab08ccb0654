#ifndef XPE_CORE_STEP_COMMON_H_
#define XPE_CORE_STEP_COMMON_H_

#include <span>
#include <vector>

#include "src/axes/axis.h"
#include "src/core/stats.h"
#include "src/index/index_tier.h"
#include "src/obs/profiler.h"
#include "src/xml/document.h"
#include "src/xpath/ast.h"

namespace xpe::exec {
struct ParallelPolicy;
}  // namespace xpe::exec

namespace xpe {

struct EvalOptions;  // core/engine.h

/// The resolved index configuration of one evaluation: whether eligible
/// steps may use postings at all (EvalOptions::use_index) and which
/// storage tier answers them. Engines resolve this once per evaluation
/// with ResolveIndexChoice and hand it to every StepKernel /
/// RestrictByNodeTest call.
struct IndexChoice {
  bool use_index = true;
  index::IndexTier tier = index::IndexTier::kHot;
};

/// EvalOptions::index_tier overrides the document's configured tier;
/// unset defers to xml::Document::index_tier().
IndexChoice ResolveIndexChoice(const xml::Document& doc,
                               const EvalOptions& options);

/// Step-evaluation helpers shared by all engines, so node-test and
/// ordering semantics cannot diverge between them.

/// True iff `node` passes the node test `t` on `axis` (the paper's
/// y ∈ T(t)). `*` and names select the axis's principal node type
/// (attributes on the attribute axis, elements elsewhere).
bool MatchesNodeTest(const xml::Document& doc, Axis axis,
                     const xpath::NodeTest& test, xml::NodeId node);

/// Filters `nodes` by the node test; stays in document order.
NodeSet ApplyNodeTest(const xml::Document& doc, Axis axis,
                      const xpath::NodeTest& test, const NodeSet& nodes);

/// ApplyNodeTest into a caller-owned buffer (cleared first; typically
/// EvalWorkspace scratch).
void ApplyNodeTestInto(const xml::Document& doc, Axis axis,
                       const xpath::NodeTest& test,
                       std::span<const xml::NodeId> nodes,
                       std::vector<xml::NodeId>* out);

/// Nodes of `set` in the step order <doc,χ of §2.1: document order for
/// forward axes, reverse document order for reverse axes. Positions
/// (idxχ) are 1-based indices into this vector.
std::vector<xml::NodeId> OrderForAxis(Axis axis, const NodeSet& set);

/// OrderForAxis into a caller-owned buffer (cleared first).
void OrderForAxisInto(Axis axis, std::span<const xml::NodeId> set,
                      std::vector<xml::NodeId>* out);

/// χ({x}) ∩ T(t): the candidate list of one location step from one
/// origin, in document order.
NodeSet StepCandidates(const xml::Document& doc, Axis axis,
                       const xpath::NodeTest& test, xml::NodeId origin);

/// One location step's χ(X) ∩ T(t) evaluator, shared by all engines so
/// the index-vs-scan dispatch and its stats accounting live in one
/// place. Construction resolves the document index's postings once (when
/// `use_index` is on and the step is index-eligible), so per-origin loops
/// pay no repeated name lookups; Eval then answers from the postings or
/// falls back to the O(|D|) scan. Does not handle the id "axis" —
/// callers special-case Axis::kId before constructing a kernel.
///
/// Both entry points take an optional node limit: the document-order
/// prefix bound of the early-terminating result modes (ResultSpec). On
/// the indexed path the limit stops the postings walk itself; the scan
/// path materializes the axis image and truncates, which is correct but
/// not sublinear — the reason Exists()/First() want the index on.
class StepKernel {
 public:
  /// `profile`/`step_id`: optional per-query profiling sink and the
  /// step's parse-tree id to attribute rows to (obs/profiler.h). A null
  /// sink costs one pointer check per Eval/EvalInto; a non-null one
  /// adds two monotonic clock reads per call and records a row with the
  /// same nodes_visited accounting the stats counters use.
  ///
  /// `parallel`: optional intra-query parallelism policy
  /// (exec/parallel_step.h; engines resolve EvalOptions::parallel once
  /// per evaluation with exec::MakePolicy). Null or inactive means pure
  /// sequential evaluation; an active policy routes partitionable steps
  /// through the shared executor pool with bit-identical results and
  /// accounting — the profiler row's workers_used reports the width.
  StepKernel(const xml::Document& doc, const xpath::AstNode& step,
             const IndexChoice& index, EvalStats* stats,
             obs::QueryProfile* profile = nullptr,
             xpath::AstId step_id = xpath::kInvalidAstId,
             const exec::ParallelPolicy* parallel = nullptr);

  /// Equivalent to ApplyNodeTest(doc, axis, test, EvalAxis(doc, axis, x)),
  /// restricted to its first `limit` nodes in document order.
  NodeSet Eval(const NodeSet& x, uint64_t limit = kNoNodeLimit) const;

  /// Eval into a caller-owned buffer (cleared first). The indexed path is
  /// allocation-free; the scan path still materializes the axis image
  /// internally. `x` is any sorted duplicate-free id sequence — the
  /// per-origin loops pass single-element spans without building a
  /// NodeSet::Single per origin.
  void EvalInto(std::span<const xml::NodeId> x, std::vector<xml::NodeId>* out,
                uint64_t limit = kNoNodeLimit) const;

 private:
  const xml::Document& doc_;
  const xpath::AstNode& step_;
  /// Resolved tier-erased postings when the indexed path applies
  /// (has_postings_), untouched for scan. The tier was fixed at
  /// construction via IndexChoice.
  index::PostingsView postings_;
  bool has_postings_ = false;
  EvalStats* stats_;
  obs::QueryProfile* profile_;
  xpath::AstId step_id_;
  /// Null or inactive (max_workers == 1) means sequential.
  const exec::ParallelPolicy* parallel_;
};

// (The `//t` fusion that used to live here as a runtime peephole —
// FuseTrailingDescendantPair, gated to the limited result modes — is now
// a compile-time rewrite in src/xpath/optimize.h, applied for every
// result mode; engines simply see the fused plan.)

/// T(t) ∩ nodes for the backward-propagation passes: a postings
/// intersection when `index.use_index` is on and the test is
/// postings-backed (counted in stats->indexed_steps), the ApplyNodeTest
/// scan otherwise. `profile`/`step_id` attribute a runtime row to the
/// propagated step, and `parallel` opts the pass into chunked
/// evaluation, like StepKernel.
NodeSet RestrictByNodeTest(const xml::Document& doc, Axis axis,
                           const xpath::NodeTest& test, const NodeSet& nodes,
                           const IndexChoice& index, EvalStats* stats,
                           obs::QueryProfile* profile = nullptr,
                           xpath::AstId step_id = xpath::kInvalidAstId,
                           const exec::ParallelPolicy* parallel = nullptr);

/// RestrictByNodeTest into a caller-owned buffer (cleared first).
void RestrictByNodeTestInto(const xml::Document& doc, Axis axis,
                            const xpath::NodeTest& test,
                            std::span<const xml::NodeId> nodes,
                            const IndexChoice& index, EvalStats* stats,
                            std::vector<xml::NodeId>* out,
                            obs::QueryProfile* profile = nullptr,
                            xpath::AstId step_id = xpath::kInvalidAstId,
                            const exec::ParallelPolicy* parallel = nullptr);

}  // namespace xpe

#endif  // XPE_CORE_STEP_COMMON_H_
