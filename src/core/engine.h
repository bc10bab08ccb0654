#ifndef XPE_CORE_ENGINE_H_
#define XPE_CORE_ENGINE_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/core/stats.h"
#include "src/core/value.h"
#include "src/exec/parallel_options.h"
#include "src/index/index_tier.h"
#include "src/xpath/compile.h"

namespace xpe::obs {
class QueryProfile;
}  // namespace xpe::obs

namespace xpe {

/// The evaluation engines this library implements. All six compute the
/// same XPath 1.0 semantics; they differ in complexity:
///
/// | engine          | time            | space          | origin          |
/// |-----------------|-----------------|----------------|-----------------|
/// | kNaive          | exp(|Q|)        | O(|D|·|Q|)     | XALAN/XT/IE6-   |
/// |                 |                 | (call stack)   | style baseline  |
/// | kBottomUp (E↑)  | poly, |D|³ rows | O(|D|³·|Q|)    | [11]            |
/// | kTopDown  (E↓)  | O(|D|⁵·|Q|²)    | O(|D|⁴·|Q|²)   | [11] / §2.2     |
/// | kMinContext     | O(|D|⁴·|Q|²)    | O(|D|²·|Q|²)   | §3 (Theorem 7)  |
/// | kOptMinContext  | best applicable | best applicable| §5 (Algorithm 8)|
/// | kCoreXPath      | O(|D|·|Q|)      | O(|D|·|Q|)     | [11] / Def. 12  |
///
/// kCoreXPath only accepts Core XPath queries; kOptMinContext dispatches
/// per fragment (Core XPath → linear engine; Wadler subexpressions →
/// bottom-up paths; everything else → MINCONTEXT).
enum class EngineKind : uint8_t {
  kNaive = 0,
  kBottomUp,
  kTopDown,
  kMinContext,
  kOptMinContext,
  kCoreXPath,
};

inline constexpr int kNumEngines = 6;

const char* EngineKindToString(EngineKind kind);

/// All engines, in the order of the table above.
std::vector<EngineKind> AllEngines();

/// The evaluation context of §2.2: ⟨cn, cp, cs⟩ with 1 ≤ cp ≤ cs.
struct EvalContext {
  xml::NodeId node = 0;  // defaults to the document root
  uint32_t position = 1;
  uint32_t size = 1;
};

/// What shape of result an evaluation must produce. Production XPath
/// traffic is dominated by existence checks, first-match lookups and
/// counts — shapes where an engine can stop long before materializing
/// the full node-set. The mode is threaded through the dispatcher into
/// the engines (Core XPath's final step, OPTMINCONTEXT's outermost-path
/// sets, the index kernels' postings loops), so kFirst/kExists/kLimit
/// genuinely short-circuit document scans instead of truncating a
/// materialized set. Engines that cannot short-circuit a given shape
/// still return the correct answer: the dispatcher applies the mode as
/// a post-hoc reduction, which the differential suite holds equal to
/// the reduction of the full result for every engine.
enum class ResultMode : uint8_t {
  kFull = 0,  // the complete Value (XPath 1.0 semantics, the default)
  kFirst,     // the first result node in document order, if any
  kExists,    // whether the result node-set is non-empty
  kCount,     // the result node-set's cardinality
  kLimit,     // the first ResultSpec::limit nodes in document order
};

const char* ResultModeToString(ResultMode mode);

/// How to deliver an evaluation's result. Modes other than kFull (and
/// sinks) apply to node-set-typed queries only; requesting them for a
/// query whose static result type is boolean/number/string is an
/// InvalidArgument error. Evaluate() returns, per mode:
///   kFull   — the full Value;
///   kFirst  — Value::Nodes with at most one node (the document-order
///             first match);
///   kExists — Value::Boolean;
///   kCount  — Value::Number (the full match count; never truncated);
///   kLimit  — Value::Nodes with at most `limit` nodes (document-order
///             prefix of the full result).
/// The typed verbs of xpe::Query (query.h) are the ergonomic surface
/// over these.
struct ResultSpec {
  ResultMode mode = ResultMode::kFull;
  /// kLimit only: how many document-order-first nodes to produce. Must
  /// be >= 1 when mode is kLimit (a zero limit is rejected as
  /// InvalidArgument — it is almost always a forgotten field).
  uint64_t limit = 0;
  /// Optional streaming sink, called once per result node in document
  /// order after the engine finishes; returning false stops the
  /// iteration. Applies to the node-producing modes (kFull, kFirst,
  /// kLimit) and is ignored by kExists/kCount, whose answers are not
  /// node lists. Runs on the evaluating thread (for batch items, the
  /// worker thread).
  std::function<bool(xml::NodeId)> sink;

  /// The node-count bound engines may exploit for early termination:
  /// 1 for kFirst/kExists, `limit` for kLimit, kNoNodeLimit otherwise.
  uint64_t node_limit() const {
    switch (mode) {
      case ResultMode::kFirst:
      case ResultMode::kExists:
        return 1;
      case ResultMode::kLimit:
        return limit;
      default:
        return kNoNodeLimit;
    }
  }
};

/// Per-call options (RocksDB style).
struct EvalOptions {
  EngineKind engine = EngineKind::kOptMinContext;
  /// Optional instrumentation sink; counters are added to, not reset.
  EvalStats* stats = nullptr;
  /// Abort with kResourceExhausted once the evaluation needs more than
  /// this many units of EvalStats::contexts_evaluated (0 = unlimited).
  /// A unit is one single-context evaluation; the set-valued passes
  /// (Core XPath's steps, MINCONTEXT's outermost paths, step relations
  /// and backward propagation) charge one per (location step, frontier
  /// node) pair and E↑ one per table cell, so runaway queries on huge
  /// documents are bounded in every engine. All engines but the naive
  /// one share one meter (StepContext::Charge): a trip reads
  /// contexts_evaluated == budget + 1 and budget_trips == 1. The naive
  /// engine stops at exactly `budget` units.
  uint64_t budget = 0;
  /// Result shape / early-termination contract; see ResultSpec.
  ResultSpec result;
  /// Optional per-query profiling sink (obs/profiler.h): the dispatcher
  /// records the eval phase span and the step kernels record one
  /// runtime row per location-step node (wall time, frontier/result
  /// sizes, nodes_visited, indexed vs. scanned). Null (the default)
  /// costs one pointer check per kernel call — no clocks, no locks;
  /// bench_obs gates that the disabled path stays free. Like `stats`,
  /// the sink is single-threaded: one per evaluation, never shared
  /// across workers. Most callers want Query::Profile() (query.h),
  /// which attaches a sink and joins the rows with the plan report.
  obs::QueryProfile* profile = nullptr;
  /// Evaluate index-eligible location steps against the per-name postings
  /// of Document::index() instead of the O(|D|) axis scans. Changes cost
  /// only, never results; the index is built lazily on first indexed
  /// evaluation. The naive engine ignores this — it stays the index-free
  /// executable specification the differential tests compare against.
  bool use_index = true;
  /// Prove queries empty before running them: the dispatcher walks the
  /// compiled AST against the document's structural summary
  /// (Document::summary(), src/analyze/) and, when the top-level
  /// node-set is provably empty — or a boolean/count root provably
  /// constant — answers directly with O(|Q|) work
  /// (EvalStats::pruned_by_summary; xpe_analyze_pruned_total). Sound
  /// for every engine, tier and result mode: the analysis only
  /// over-approximates, so a prune never changes a result, only its
  /// cost. The naive engine ignores this like use_index — it stays the
  /// executable specification the differential tests compare against.
  bool analyze = true;
  /// Which index storage tier answers indexed steps: kHot (flat postings
  /// arrays, fastest) or kDense (the succinct tier of src/succinct/ —
  /// Elias-Fano postings, a fraction of the memory at a small decode
  /// cost). Unset (the default) defers to the document's configured tier
  /// (xml::Document::set_index_tier). Results are bit-identical across
  /// tiers; only space/time trade-offs change. Ignored when use_index is
  /// false.
  std::optional<index::IndexTier> index_tier;
  /// Intra-query parallelism (exec/parallel_options.h): partition heavy
  /// descendant scans across the shared executor pool, in document
  /// order. Results, stats and profiler accounting are identical to
  /// sequential evaluation; only wall-clock changes. Off by default —
  /// worth enabling for single heavy queries over large documents (the
  /// `//x` full-materialization shape); for many small queries prefer
  /// batch::BatchEvaluator, with which this composes safely (both draw
  /// on one fixed process-wide pool, and evaluations already running on
  /// pool threads stay sequential). The naive engine ignores this, like
  /// use_index — it stays the executable specification.
  exec::ParallelOptions parallel;
  /// Ablation switch (bench_ablation): disables §3.1's "special treatment
  /// of location paths on the outermost level" in MINCONTEXT /
  /// OPTMINCONTEXT — outermost paths are then evaluated as per-origin
  /// pair relations like inner paths, costing O(|D|²) table cells where
  /// the set representation needs O(|D|). Only useful for measuring the
  /// idea's contribution; leave off otherwise.
  bool ablate_outermost_sets = false;
};

/// Evaluates a compiled query against a document. `context.node` must be
/// a node of `doc`. Thread-safe for concurrent evaluations over one
/// shared Document: engine state is per-call and the Document's lazy
/// caches (id axis, search index, number cache) are synchronized.
///
/// This is a thin wrapper that runs a one-shot evaluation session. It
/// remains the low-level entry point; most callers are better served by
/// xpe::Query (query.h), the facade that owns a pooled session and
/// exposes the typed, early-terminating verbs (Exists/First/Count/...),
/// or by an explicit Evaluator (evaluator.h) when managing sessions by
/// hand. Results are identical through every entry point — they all
/// funnel into one dispatcher.
StatusOr<Value> Evaluate(const xpath::CompiledQuery& query,
                         const xml::Document& doc, const EvalContext& context,
                         const EvalOptions& options = {});

/// Evaluate() for queries whose result is a node-set; any other result
/// type is an InvalidArgument error.
StatusOr<NodeSet> EvaluateNodeSet(const xpath::CompiledQuery& query,
                                  const xml::Document& doc,
                                  const EvalContext& context = {},
                                  const EvalOptions& options = {});

}  // namespace xpe

#endif  // XPE_CORE_ENGINE_H_
