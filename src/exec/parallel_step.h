#ifndef XPE_EXEC_PARALLEL_STEP_H_
#define XPE_EXEC_PARALLEL_STEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/axes/axis.h"
#include "src/core/engine.h"
#include "src/exec/parallel_options.h"
#include "src/index/index_tier.h"
#include "src/xml/document.h"
#include "src/xpath/ast.h"

namespace xpe::exec {

/// Parallel location-step kernels: partition one step's work across the
/// shared Executor pool, run the *existing* sequential kernels per chunk
/// into thread-local output tables, and merge back in document order.
/// The step drivers in core/step_common.cc try these first and fall back
/// to the plain sequential call whenever a function returns 0 — so the
/// partitioned path never has to handle a shape it cannot split, and
/// results, EvalStats and profiler accounting stay bit-identical to
/// sequential evaluation by construction.

/// A resolved, per-evaluation view of ParallelOptions: the dispatcher's
/// StepContext (core/step_common.h) builds one via MakePolicy, and every
/// step kernel reads it from there. max_workers == 1 means "stay
/// sequential".
struct ParallelPolicy {
  /// Partition width actually in force (never 0; 1 = sequential).
  uint32_t max_workers = 1;
  /// ParallelOptions::min_frontier, floored at 1: steps whose
  /// partitionable work is below this stay sequential.
  uint32_t min_work = 4096;
  /// kExists only: once any chunk has produced `limit` nodes the answer
  /// is decided, so in-flight chunks are cancelled through a shared
  /// atomic flag. kFirst/kLimit keep every chunk: they need the exact
  /// document-order prefix, which the per-chunk limit + k-way merge
  /// already bounds to `limit` nodes per chunk.
  bool cancel_on_limit = false;

  bool active() const { return max_workers > 1; }
};

/// Resolves the user-facing options against the result mode and the
/// calling context. Inactive (max_workers = 1) when options.enabled is
/// false or the caller is already inside an Executor task (nested
/// parallelism runs inline; see Executor::InParallelRegion).
ParallelPolicy MakePolicy(const ParallelOptions& options, ResultMode mode);

/// Splits `work` units into chunks of `*chunk_size` each, aiming for a
/// few chunks per worker (work-stealing granularity) without dropping
/// below min_work/4 per chunk. Returns the chunk count, or 0 when the
/// step should stay sequential (policy inactive, work under the cutoff,
/// or everything fits in one chunk).
uint32_t PlanChunks(uint64_t work, const ParallelPolicy& policy,
                    uint64_t* chunk_size);

/// Merges sorted duplicate-free runs into one sorted duplicate-free
/// vector (cleared first), stopping after `limit` nodes — the
/// document-order merge of per-chunk step outputs. O(total × k); k is
/// the chunk count, which PlanChunks keeps small.
void KWayMergeUnique(std::span<const std::vector<xml::NodeId>> runs,
                     std::vector<xml::NodeId>* out,
                     uint64_t limit = kNoNodeLimit);

/// Parallel form of index::IndexedStepOverPostingsInto. Returns the
/// partition width used (>= 2), with `out` holding exactly what the
/// sequential call would produce — or 0 without touching `out`, meaning
/// the caller must run the sequential kernel (axis not partitionable,
/// work under the cutoff). Partitionable shapes:
///  - descendant/descendant-or-self: the output *is* the postings inside
///    the frontier's disjoint maximal subtree intervals, so the merged
///    intervals are prefix-summed and chunks copy postings slices
///    straight into their final positions — no merge needed;
///  - self/child/attribute/parent: the frontier span is chunked, each
///    chunk runs the sequential kernel into its own run, and the runs
///    k-way merge (parent chunks can emit the same node; the merge
///    dedups).
/// ancestor (each chunk would rescan all postings), following and
/// preceding (chunk outputs overlap almost entirely) return 0.
/// Tier-generic: postings may be the flat span or the Elias-Fano list
/// (index::PostingsView); chunk copies use the view's Decode, which is
/// std::copy on the hot tier.
uint32_t ParallelIndexedStep(const ParallelPolicy& policy,
                             const xml::Document& doc,
                             const index::PostingsView& postings, Axis axis,
                             const xpath::NodeTest& test,
                             std::span<const xml::NodeId> x,
                             std::vector<xml::NodeId>* out,
                             uint64_t limit = kNoNodeLimit);

/// Parallel form of the scan path for descendant/descendant-or-self
/// steps (the `//x` shape): the frontier's merged subtree intervals are
/// partitioned by cumulative length and each chunk scans its id
/// subrange, applying the axis's attribute rule and the node test.
/// Returns the partition width used and sets `*image_size` to the axis
/// image's size pre-node-test (what EvalAxis would have materialized —
/// the driver's nodes_visited accounting needs it); 0 means run the
/// sequential EvalAxis + ApplyNodeTest instead. Chunks always scan
/// their full subrange even under `limit`, matching the sequential
/// path's visit accounting (it materializes the whole image and
/// truncates afterwards).
uint32_t ParallelDescendantScan(const ParallelPolicy& policy,
                                const xml::Document& doc, Axis axis,
                                const xpath::NodeTest& test,
                                std::span<const xml::NodeId> x,
                                std::vector<xml::NodeId>* out, uint64_t limit,
                                uint64_t* image_size);

/// Parallel form of the backward-pass restriction (T(t) ∩ nodes):
/// chunks of `nodes` run index::IndexedApplyNodeTestInto (indexed) or
/// ApplyNodeTestInto (scan) and concatenate — chunk outputs are
/// disjoint and ascending, no merge needed. `index` selects the indexed
/// path (any tier); nullptr means the node-test scan. Returns the
/// partition width used, or 0 for sequential (under the cutoff, or the
/// indexed universe shape, where the sequential kernel is a single copy
/// no split can beat).
uint32_t ParallelRestrict(const ParallelPolicy& policy,
                          const xml::Document& doc,
                          const index::IndexView* index, Axis axis,
                          const xpath::NodeTest& test,
                          std::span<const xml::NodeId> nodes,
                          std::vector<xml::NodeId>* out);

}  // namespace xpe::exec

#endif  // XPE_EXEC_PARALLEL_STEP_H_
