#ifndef XPE_CORE_ENGINE_INTERNAL_H_
#define XPE_CORE_ENGINE_INTERNAL_H_

#include "src/core/engine.h"
#include "src/core/evaluator.h"
#include "src/core/step_common.h"

namespace xpe::internal {

/// Validates the context, builds the evaluation's StepContext and
/// dispatches to the engine selected by `options`, running it on `ws`
/// (arena recycled by the caller). Both the free Evaluate() (one-shot
/// workspace) and Evaluator sessions (pooled workspace) funnel through
/// here, which is what guarantees their results are identical.
StatusOr<Value> EvaluateWith(EvalWorkspace& ws,
                             const xpath::CompiledQuery& query,
                             const xml::Document& doc,
                             const EvalContext& context,
                             const EvalOptions& options);

/// Entry points of the individual engines; EvaluateWith dispatches to
/// them. All take the normalized tree of a CompiledQuery. The naive
/// engine reads the caller's EvalOptions directly; the polynomial
/// engines take the evaluation's StepContext (step_common.h), which
/// carries the document, index and parallelism configuration, the node
/// limit and the stats/profile sinks and meters the budget, plus the
/// session workspace their context-value tables and scratch buffers
/// live in.

/// The exponential-time baseline (docs/architecture.md, "Paper notes"):
/// direct recursion over the denotational semantics, re-evaluating every
/// subexpression for every context it is reached under, like the engines
/// measured in [11].
/// Ignores EvalOptions::use_index — it is the index-free specification —
/// and takes no workspace: its only state is the call stack.
StatusOr<Value> EvalNaive(const xpath::CompiledQuery& query,
                          const xml::Document& doc, const EvalContext& ctx,
                          const EvalOptions& options);

/// E↓ of Definition 2: vectorized top-down evaluation over context lists.
StatusOr<Value> EvalTopDown(EvalWorkspace& ws,
                            const xpath::CompiledQuery& query,
                            const EvalContext& ctx, StepContext& sc);

/// E↑ of [11] §2.3: strict bottom-up context-value tables over all
/// ⟨cn,cp,cs⟩ triples.
StatusOr<Value> EvalBottomUp(EvalWorkspace& ws,
                             const xpath::CompiledQuery& query,
                             const EvalContext& ctx, StepContext& sc);

/// MINCONTEXT (Algorithm 6) when `optimized` is false; OPTMINCONTEXT
/// (Algorithm 8: bottom-up pre-evaluation of eligible paths + Core XPath
/// fast path) when true. `ablate_outermost_sets` is
/// EvalOptions::ablate_outermost_sets.
StatusOr<Value> EvalMinContext(EvalWorkspace& ws,
                               const xpath::CompiledQuery& query,
                               const EvalContext& ctx, StepContext& sc,
                               bool optimized, bool ablate_outermost_sets);

/// The linear-time Core XPath engine (Definition 12 / Theorem 13).
/// Fails with InvalidArgument if the query is not Core XPath.
StatusOr<Value> EvalCoreXPath(EvalWorkspace& ws,
                              const xpath::CompiledQuery& query,
                              const EvalContext& ctx, StepContext& sc);

}  // namespace xpe::internal

#endif  // XPE_CORE_ENGINE_INTERNAL_H_
