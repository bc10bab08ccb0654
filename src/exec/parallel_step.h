#ifndef XPE_EXEC_PARALLEL_STEP_H_
#define XPE_EXEC_PARALLEL_STEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/axes/axis.h"
#include "src/exec/parallel_options.h"
#include "src/xml/document.h"
#include "src/xpath/ast.h"

namespace xpe::exec {

/// The partitioned location-step kernel: a descendant step's scan split
/// across the shared Executor pool. StepKernel (core/step_common.cc)
/// tries it first on the scan path and runs the sequential EvalAxis +
/// ApplyNodeTest whenever it returns 0, so the partitioned path never
/// has to handle a shape it cannot split, and results, EvalStats and
/// profiler accounting stay bit-identical to sequential evaluation by
/// construction. Indexed steps and the backward-pass restrictions always
/// run their sequential kernel: measured per step on the benchmark's
/// traffic, partitioning them never paid.

/// A resolved, per-evaluation view of ParallelOptions: the dispatcher's
/// StepContext (core/step_common.h) builds one via MakePolicy, and
/// StepKernel reads it from there. max_workers == 1 means "stay
/// sequential".
struct ParallelPolicy {
  /// Partition width actually in force (never 0; 1 = sequential).
  uint32_t max_workers = 1;
  /// ParallelOptions::min_frontier, floored at 1: scans whose covered
  /// interval length is below this stay sequential.
  uint32_t min_work = 4096;

  bool active() const { return max_workers > 1; }
};

/// Resolves the user-facing options against the calling context.
/// Inactive (max_workers = 1) when options.enabled is false or the
/// caller is already inside an Executor task (nested parallelism runs
/// inline; see Executor::InParallelRegion).
ParallelPolicy MakePolicy(const ParallelOptions& options);

/// Splits `work` units into chunks of `*chunk_size` each, aiming for a
/// few chunks per worker (work-stealing granularity) without dropping
/// below min_work/4 per chunk. Returns the chunk count, or 0 when the
/// step should stay sequential (policy inactive, work under the cutoff,
/// or everything fits in one chunk).
uint32_t PlanChunks(uint64_t work, const ParallelPolicy& policy,
                    uint64_t* chunk_size);

/// Parallel form of the scan path for descendant/descendant-or-self
/// steps (the `//x` shape): the frontier's merged subtree intervals are
/// partitioned by cumulative length and each chunk scans its id
/// subrange, applying the axis's attribute rule and the node test.
/// Returns the partition width used and sets `*image_size` to the axis
/// image's size pre-node-test (what EvalAxis would have materialized —
/// the caller's nodes_visited accounting needs it), with `out` holding
/// the whole image's matches in document order; 0 means run the
/// sequential EvalAxis + ApplyNodeTest instead. The caller applies any
/// node limit afterwards, on either path.
uint32_t ParallelDescendantScan(const ParallelPolicy& policy,
                                const xml::Document& doc, Axis axis,
                                const xpath::NodeTest& test,
                                std::span<const xml::NodeId> x,
                                std::vector<xml::NodeId>* out,
                                uint64_t* image_size);

}  // namespace xpe::exec

#endif  // XPE_EXEC_PARALLEL_STEP_H_
