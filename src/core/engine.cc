#include "src/core/engine.h"

#include <algorithm>
#include <bit>

#include "src/analyze/satisfiability.h"
#include "src/analyze/summary.h"
#include "src/core/engine_internal.h"
#include "src/core/evaluator.h"
#include "src/core/stats.h"
#include "src/core/step_common.h"
#include "src/index/step_index.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace xpe {

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kBottomUp:
      return "bottom-up";
    case EngineKind::kTopDown:
      return "top-down";
    case EngineKind::kMinContext:
      return "mincontext";
    case EngineKind::kOptMinContext:
      return "optmincontext";
    case EngineKind::kCoreXPath:
      return "corexpath";
  }
  return "?";
}

std::vector<EngineKind> AllEngines() {
  return {EngineKind::kNaive,      EngineKind::kBottomUp,
          EngineKind::kTopDown,    EngineKind::kMinContext,
          EngineKind::kOptMinContext, EngineKind::kCoreXPath};
}

const char* ResultModeToString(ResultMode mode) {
  switch (mode) {
    case ResultMode::kFull:
      return "full";
    case ResultMode::kFirst:
      return "first";
    case ResultMode::kExists:
      return "exists";
    case ResultMode::kCount:
      return "count";
    case ResultMode::kLimit:
      return "limit";
  }
  return "?";
}

std::string EvalStats::ToString() const {
  // Every field, keyed by its exact struct-field name, in declaration
  // order. The format is pinned by a test (obs_test.cc): a field added
  // to EvalStats but not rendered here is a silent observability hole.
  return "cells_allocated=" + std::to_string(cells_allocated) +
         " cells_live=" + std::to_string(cells_live) +
         " cells_peak=" + std::to_string(cells_peak) +
         " contexts_evaluated=" + std::to_string(contexts_evaluated) +
         " axis_evals=" + std::to_string(axis_evals) +
         " indexed_steps=" + std::to_string(indexed_steps) +
         " nodes_visited=" + std::to_string(nodes_visited) +
         " arena_bytes_peak=" + std::to_string(arena_bytes_peak) +
         " count_fast_path=" + std::to_string(count_fast_path) +
         " pruned_by_summary=" + std::to_string(pruned_by_summary) +
         " budget_trips=" + std::to_string(budget_trips);
}

namespace {

/// Applies the ResultSpec to the engine's raw value: truncation to the
/// mode's node bound (a no-op for engines that already stopped at it),
/// the kExists/kCount conversions, and the streaming sink. All engines
/// funnel through this one reduction, which is what makes a mode's
/// answer engine-independent: an engine that could not short-circuit a
/// given shape returns the full set and the reduction of that full set
/// is, by construction, the same answer.
Value ApplyResultSpec(Value v, const ResultSpec& spec) {
  if (spec.mode == ResultMode::kFull) {
    if (spec.sink) {
      for (xml::NodeId n : v.node_set()) {
        if (!spec.sink(n)) break;
      }
    }
    return v;
  }
  const NodeSet& full = v.node_set();
  switch (spec.mode) {
    case ResultMode::kExists:
      return Value::Boolean(!full.empty());
    case ResultMode::kCount:
      return Value::Number(static_cast<double>(full.size()));
    default: {  // kFirst / kLimit: the document-order prefix
      const uint64_t bound = spec.node_limit();
      NodeSet prefix =
          full.size() > bound
              ? NodeSet::FromSorted(
                    std::span<const xml::NodeId>(full.ids()).first(bound))
              : std::move(v).node_set();  // rvalue accessor: a real move
      if (spec.sink) {
        for (xml::NodeId n : prefix) {
          if (!spec.sink(n)) break;
        }
      }
      return Value::Nodes(std::move(prefix));
    }
  }
}

/// The O(log n) count fast path: a Count() evaluation — ResultMode::kCount,
/// or a kFull evaluation of a top-level count(π) call — whose operand is a
/// single predicate-free index-eligible descendant step answers straight
/// from a postings CountInRange over the origin's subtree interval. No
/// node-set is materialized and no engine runs: two binary searches over
/// the per-name postings (either tier), so nodes_visited records
/// 1 + ⌈log2(postings)⌉ instead of the match count. Returns true and sets
/// `*out` (a Number) when the shape applies; stats are charged here
/// because the engines never see the evaluation.
bool TryCountFastPath(const xpath::CompiledQuery& query,
                      const EvalContext& context, const EvalOptions& options,
                      const StepContext& sc, Value* out) {
  // The naive engine stays the index-free executable specification.
  if (!options.use_index || options.engine == EngineKind::kNaive) return false;
  const xpath::QueryTree& tree = query.tree();
  const xpath::AstNode* node = &tree.node(tree.root());
  const ResultSpec& spec = options.result;
  if (spec.mode == ResultMode::kCount) {
    // Count(π): the dispatcher would reduce the materialized set.
  } else if (spec.mode == ResultMode::kFull && !spec.sink &&
             node->kind == xpath::ExprKind::kFunctionCall &&
             node->fn == xpath::FunctionId::kCount &&
             node->children.size() == 1) {
    node = &tree.node(node->children[0]);
  } else {
    return false;
  }
  if (node->kind != xpath::ExprKind::kPath || node->has_head ||
      node->children.size() != 1) {
    return false;
  }
  const xpath::AstNode& step = tree.node(node->children[0]);
  if (step.kind != xpath::ExprKind::kStep || !step.children.empty() ||
      !step.index_eligible ||
      (step.axis != Axis::kDescendant &&
       step.axis != Axis::kDescendantOrSelf)) {
    return false;
  }
  const xml::Document& doc = sc.doc;
  const xml::NodeId origin = node->absolute ? doc.root() : context.node;
  const uint64_t t0 = sc.StepStart();
  const index::PostingsView postings = index::StepPostings(
      doc, doc.index_view(sc.tier), step.axis, step.test);
  // The postings hold only the principal-node-type matches of the test,
  // so counting them inside the subtree interval is exact — including
  // the descendant-or-self origin itself when it matches.
  const xml::NodeId lo =
      step.axis == Axis::kDescendant ? origin + 1 : origin;
  const uint64_t count = postings.CountInRange(lo, doc.subtree_end(origin));
  ++sc.stats().contexts_evaluated;
  ++sc.stats().count_fast_path;
  // One row for the whole query: frontier is the single origin and the
  // "produced" result is the count itself.
  sc.RecordStep(node->children[0], t0, /*frontier=*/1, /*produced=*/count,
                1 + std::bit_width(static_cast<uint64_t>(postings.size())),
                /*indexed=*/true);
  static obs::Counter* fast_path_total =
      obs::Registry::Global().GetCounter("xpe_count_fast_path_total");
  fast_path_total->Increment();
  *out = Value::Number(static_cast<double>(count));
  return true;
}

/// The summary prune: before any engine runs, walk the compiled AST
/// against the document's structural summary (src/analyze/). If the
/// top-level node-set is provably empty — or the boolean/count root
/// provably constant — answer directly: the empty set / false / 0 is
/// the result under *every* engine, tier and result mode, so nothing
/// downstream can disagree. Costs O(|Q| · |summary|), charged to
/// nodes_visited as the analyzer's step count; when the analysis cannot
/// prove anything it touches no stats at all, keeping satisfiable
/// evaluations bit-identical with analyze on and off. Returns true and
/// sets `*out` (already in the result mode's shape — ApplyResultSpec
/// must not run again) when the prune fires.
bool TrySummaryPrune(const xpath::CompiledQuery& query,
                     const EvalContext& context, const EvalOptions& options,
                     const StepContext& sc, Value* out) {
  // The naive engine stays the analysis-free executable specification.
  if (!options.analyze || options.engine == EngineKind::kNaive) return false;
  // The Core XPath engine rejects queries outside its fragment; a prune
  // must not mask that error (ok-ness would then depend on `analyze`).
  if (options.engine == EngineKind::kCoreXPath &&
      query.fragment() != xpath::Fragment::kCoreXPath) {
    return false;
  }
  const uint64_t t0 = sc.StepStart();
  const analyze::QueryAnalysis analysis =
      analyze::AnalyzeQuery(query, sc.doc, sc.doc.summary(), context.node);
  Value answer;
  if (analysis.proves_empty()) {
    switch (options.result.mode) {
      case ResultMode::kExists:
        answer = Value::Boolean(false);
        break;
      case ResultMode::kCount:
        answer = Value::Number(0.0);
        break;
      default:  // kFull / kFirst / kLimit: the empty node-set; a sink
                // has nothing to stream.
        answer = Value::Nodes(NodeSet());
        break;
    }
  } else if (analysis.constant_boolean.has_value()) {
    answer = Value::Boolean(*analysis.constant_boolean);
  } else if (analysis.constant_number.has_value()) {
    answer = Value::Number(*analysis.constant_number);
  } else {
    return false;
  }
  ++sc.stats().contexts_evaluated;
  ++sc.stats().pruned_by_summary;
  // One row, keyed to the step the analysis failed at (the root when
  // the verdict came from a constant boolean/count root), carrying the
  // analyzer's O(|Q|) step count as its visited charge.
  xpath::AstId culprit = query.tree().root();
  for (const analyze::StepAnalysis& s : analysis.steps) {
    if (s.verdict == analyze::StepVerdict::kEmpty) {
      culprit = s.step;
      break;
    }
  }
  if (sc.profile != nullptr) {
    sc.profile->RecordPhase("summary", obs::MonotonicNanos() - t0);
  }
  sc.RecordStep(culprit, t0, /*frontier=*/1, /*produced=*/0,
                analysis.steps_analyzed, /*indexed=*/false);
  static obs::Counter* pruned_total =
      obs::Registry::Global().GetCounter("xpe_analyze_pruned_total");
  pruned_total->Increment();
  *out = std::move(answer);
  return true;
}

/// Runs the engine options.engine names; the dispatcher reduces its
/// answer to the result mode afterwards.
StatusOr<Value> RunEngine(EvalWorkspace& ws, const xpath::CompiledQuery& query,
                          const EvalContext& context,
                          const EvalOptions& options, StepContext& sc) {
  switch (options.engine) {
    case EngineKind::kNaive:
      // The naive engine ignores the node limit (it is the executable
      // specification); ApplyResultSpec still answers every mode
      // correctly.
      return internal::EvalNaive(query, sc.doc, context, options);
    case EngineKind::kBottomUp:
      return internal::EvalBottomUp(ws, query, context, sc);
    case EngineKind::kTopDown:
      return internal::EvalTopDown(ws, query, context, sc);
    case EngineKind::kMinContext:
      return internal::EvalMinContext(ws, query, context, sc,
                                      /*optimized=*/false,
                                      options.ablate_outermost_sets);
    case EngineKind::kOptMinContext:
      // Algorithm 8 + Theorem 13: a fully Core XPath query runs on the
      // linear-time engine; otherwise bottom-up passes + MINCONTEXT.
      if (query.fragment() == xpath::Fragment::kCoreXPath &&
          !options.ablate_outermost_sets) {
        return internal::EvalCoreXPath(ws, query, context, sc);
      }
      return internal::EvalMinContext(ws, query, context, sc,
                                      /*optimized=*/true,
                                      options.ablate_outermost_sets);
    case EngineKind::kCoreXPath:
      return internal::EvalCoreXPath(ws, query, context, sc);
  }
  return StatusOr<Value>(Status::InvalidArgument("unknown engine"));
}

}  // namespace

StatusOr<Value> internal::EvaluateWith(EvalWorkspace& ws,
                                       const xpath::CompiledQuery& query,
                                       const xml::Document& doc,
                                       const EvalContext& context,
                                       const EvalOptions& options) {
  if (context.node >= doc.size()) {
    return StatusOr<Value>(
        Status::InvalidArgument("context node is not part of the document"));
  }
  if (context.position < 1 || context.size < context.position) {
    return StatusOr<Value>(Status::InvalidArgument(
        "context must satisfy 1 <= position <= size"));
  }
  const ResultSpec& spec = options.result;
  if ((spec.mode != ResultMode::kFull || spec.sink) &&
      query.result_type() != xpath::ValueType::kNodeSet) {
    return StatusOr<Value>(Status::InvalidArgument(
        std::string("result mode '") + ResultModeToString(spec.mode) +
        "' requires a node-set query, but '" + query.source() +
        "' evaluates to " +
        std::string(xpath::ValueTypeToString(query.result_type()))));
  }
  if (spec.mode == ResultMode::kLimit && spec.limit == 0) {
    // Almost always a forgotten `.limit` on a raw ResultSpec; an empty
    // OK answer would read as "no matches".
    return StatusOr<Value>(Status::InvalidArgument(
        "result mode 'limit' requires ResultSpec::limit >= 1"));
  }
  const uint64_t eval_t0 =
      options.profile != nullptr ? obs::MonotonicNanos() : 0;
  // The dispatcher shortcuts — the summary prune, then the count fast
  // path — answer before any engine runs, with the result already in the
  // mode's shape, so ApplyResultSpec must not run on them (kCount's
  // reduction expects a node-set). Every path shares the epilogue below.
  StepContext sc(doc, options);
  Value shortcut;
  const bool answered =
      TrySummaryPrune(query, context, options, sc, &shortcut) ||
      TryCountFastPath(query, context, options, sc, &shortcut);
  StatusOr<Value> result = answered
                               ? StatusOr<Value>(std::move(shortcut))
                               : RunEngine(ws, query, context, options, sc);
  if (options.profile != nullptr) {
    options.profile->RecordPhase("eval", obs::MonotonicNanos() - eval_t0);
  }
  if (options.stats != nullptr) {
    options.stats->arena_bytes_peak = std::max<uint64_t>(
        options.stats->arena_bytes_peak, ws.arena()->bytes_peak());
    // Budget trips are recorded centrally so the counter is uniform
    // across engines, tiers and result modes — kCount and kLimit trip
    // it identically (the regression test in engine_test.cc holds the
    // modes equal).
    if (!result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      ++options.stats->budget_trips;
    }
  }
  if (answered || !result.ok()) return result;
  return ApplyResultSpec(std::move(result).value(), spec);
}

StatusOr<Value> Evaluate(const xpath::CompiledQuery& query,
                         const xml::Document& doc, const EvalContext& context,
                         const EvalOptions& options) {
  // A one-shot session: same dispatch as Evaluator, so results are
  // identical by construction; only the memory reuse differs.
  EvalWorkspace ws;
  return internal::EvaluateWith(ws, query, doc, context, options);
}

StatusOr<NodeSet> EvaluateNodeSet(const xpath::CompiledQuery& query,
                                  const xml::Document& doc,
                                  const EvalContext& context,
                                  const EvalOptions& options) {
  XPE_ASSIGN_OR_RETURN(Value v, Evaluate(query, doc, context, options));
  if (!v.is_node_set()) {
    return StatusOr<NodeSet>(Status::InvalidArgument(
        "query evaluates to " +
        std::string(xpath::ValueTypeToString(v.type())) + ", not a node-set"));
  }
  return std::move(v).node_set();
}

}  // namespace xpe
