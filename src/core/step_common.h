#ifndef XPE_CORE_STEP_COMMON_H_
#define XPE_CORE_STEP_COMMON_H_

#include <span>
#include <vector>

#include "src/axes/axis.h"
#include "src/common/status.h"
#include "src/core/stats.h"
#include "src/exec/parallel_step.h"
#include "src/index/index_tier.h"
#include "src/obs/profiler.h"
#include "src/xml/document.h"
#include "src/xpath/ast.h"

namespace xpe {

/// The per-evaluation state every engine's step kernels share, built
/// once by internal::EvaluateWith from EvalOptions: the document, the
/// index configuration (use_index and the resolved tier), the intra-query
/// parallelism policy, the result mode's node limit and the stats and
/// profile sinks. It is also the one place work is charged: Charge()
/// meters EvalOptions::budget for every engine, and RecordStep() writes
/// one kernel call's nodes_visited and its profiler row together, so
/// the two cannot drift apart.
class StepContext {
 public:
  StepContext(const xml::Document& doc, const EvalOptions& options);
  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

  const xml::Document& doc;
  /// EvalOptions::use_index: eligible steps may answer from postings.
  const bool use_index;
  /// EvalOptions::index_tier, or the document's tier when unset.
  const index::IndexTier tier;
  /// EvalOptions::parallel resolved against the result mode and the
  /// calling thread; inactive means sequential evaluation.
  const exec::ParallelPolicy parallel;
  /// ResultSpec::node_limit() of the call.
  const uint64_t node_limit;
  /// The profiling sink; null when not profiling.
  obs::QueryProfile* const profile;

  /// The caller's EvalStats sink, or a private one when none is
  /// attached, so engines count without null checks.
  EvalStats& stats() const { return *stats_; }

  /// Charges `n` units of EvalOptions::budget to contexts_evaluated. A
  /// budget running out among them stops at the first unit past it, as
  /// `n` single charges would, so every trip reads
  /// contexts_evaluated == budget + 1 whichever engine charged it.
  Status Charge(uint64_t n = 1);

  /// When a kernel call starts: a clock read when profiling, else 0.
  uint64_t StepStart() const {
    return profile != nullptr ? obs::MonotonicNanos() : 0;
  }
  /// Charges one kernel call of the step `step_id` that started at `t0`:
  /// `visited` to nodes_visited, one indexed_steps when `indexed`, and
  /// the same figures to the step's profiler row. `workers` is the
  /// partition width the call ran with (0 or 1 for sequential).
  void RecordStep(xpath::AstId step_id, uint64_t t0, uint64_t frontier,
                  uint64_t produced, uint64_t visited, bool indexed,
                  uint32_t workers = 1) const;

 private:
  EvalStats own_stats_;
  EvalStats* const stats_;
  const uint64_t budget_;
  uint64_t used_ = 0;
};

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
/// the index-vs-scan dispatch and its accounting live in one place.
/// Construction resolves the document index's postings once (when
/// `sc.use_index` is on and the step is index-eligible), so per-origin
/// loops pay no repeated name lookups; EvalInto then answers from the
/// postings or falls back to the O(|D|) scan, partitioned across the
/// shared executor pool when `sc.parallel` is active, and charges the
/// call through StepContext::RecordStep. Does not handle the id "axis"
/// — callers special-case Axis::kId before constructing a kernel.
class StepKernel {
 public:
  /// `step` is the location-step node `step_id` names; profiler rows
  /// attribute to `step_id`.
  StepKernel(const StepContext& sc, const xpath::AstNode& step,
             xpath::AstId step_id);

  /// ApplyNodeTest(doc, axis, test, EvalAxis(doc, axis, x)) restricted
  /// to its first `limit` nodes in document order, into a caller-owned
  /// buffer (cleared first). `x` is any sorted duplicate-free id
  /// sequence — the per-origin loops pass single-element spans. On the
  /// indexed path the limit stops the postings walk itself and the call
  /// is allocation-free; the scan path materializes the axis image and
  /// truncates, which is correct but not sublinear — the reason
  /// Exists()/First() want the index on.
  void EvalInto(std::span<const xml::NodeId> x, std::vector<xml::NodeId>* out,
                uint64_t limit = kNoNodeLimit) const;

 private:
  const StepContext& sc_;
  const xpath::AstNode& step_;
  xpath::AstId step_id_;
  /// Resolved tier-erased postings when the indexed path applies
  /// (has_postings_), untouched for scan.
  index::PostingsView postings_;
  bool has_postings_ = false;
};

/// T(t) ∩ nodes for the backward-propagation passes, where t is the
/// node test of `step` (the node `step_id` names): a postings
/// intersection when `sc.use_index` is on and the test is
/// postings-backed, the ApplyNodeTest scan otherwise; chunked when
/// `sc.parallel` is active, and charged like a StepKernel call. Writes
/// into a caller-owned buffer (cleared first).
void RestrictByNodeTestInto(const StepContext& sc, const xpath::AstNode& step,
                            xpath::AstId step_id,
                            std::span<const xml::NodeId> nodes,
                            std::vector<xml::NodeId>* out);

}  // namespace xpe

#endif  // XPE_CORE_STEP_COMMON_H_
