#ifndef XPE_BATCH_BATCH_EVALUATOR_H_
#define XPE_BATCH_BATCH_EVALUATOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/batch/plan_cache.h"
#include "src/core/engine.h"
#include "src/core/evaluator.h"
#include "src/core/stats.h"
#include "src/core/value.h"
#include "src/obs/metrics.h"

namespace xpe::batch {

/// One unit of work: a query (source text — plans come from the shared
/// PlanCache) against a document at a context. The document pointer must
/// outlive the EvaluateAll() call; documents may repeat freely across
/// items (that is the point: shared read-only documents).
///
/// `result` selects the item's result shape per the ResultSpec contract
/// (engine.h): a batch can mix full materializations with
/// early-terminating existence probes, first-match lookups, counts and
/// limits — the mode is threaded through the worker's session into the
/// engines, so probe-shaped items cost what a probe costs. It overrides
/// BatchOptions::eval.result for this item. A per-item sink, if set,
/// runs on whichever worker thread evaluates the item.
///
/// `plan` (optional) supplies a precompiled plan, bypassing the pool's
/// own PlanCache for this item; `query` is then informational only
/// (error messages). This is the serve-tier handoff: xpe::serve
/// resolves plans in *per-tenant* PlanCaches (sharing the process-wide
/// CanonicalPlanLevel) and hands the worker pool ready plans, so tenant
/// isolation lives in the caches while the pool stays tenant-blind.
/// Plan-supplied items count neither a cache hit nor a miss, and
/// BatchResult::cache_hit stays false — the caller already knows.
///
/// `eval` (optional) overrides BatchOptions::eval for this item: the
/// serve tier uses it for per-request budgets (admission control) and
/// per-request parallelism. Unlike BatchOptions::eval, a per-item
/// stats/profile sink here is allowed — exactly one worker evaluates
/// the item, so there is no cross-thread sharing; the sink runs on that
/// worker thread. The item's `result` field still wins over
/// eval->result.
struct BatchItem {
  std::string query;
  const xml::Document* doc = nullptr;
  EvalContext context = {};
  ResultSpec result = {};
  SharedPlan plan;
  std::optional<EvalOptions> eval;
};

/// Per-item outcome, in *item order* — results[i] always answers
/// items[i], no matter how the scheduler interleaved the workers.
struct BatchResult {
  StatusOr<Value> value = Status::Internal("not evaluated");
  bool cache_hit = false;  // plan served from the cache (source-text hit)
};

/// Batch-wide counters, aggregated race-free: every worker accumulates
/// into thread-local counters and merges once under a lock when it runs
/// out of work.
struct BatchStats {
  EvalStats eval;            // sums; *_peak fields hold the max over workers
  uint64_t items = 0;        // items evaluated (errors included)
  uint64_t errors = 0;       // items whose result is a non-OK Status
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

/// Configuration for a BatchEvaluator (RocksDB-style options struct).
struct BatchOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (min 1).
  int workers = 0;
  /// Engine/index/budget options applied to every item. The stats and
  /// profile sinks must be null: a single sink shared by every worker
  /// would be a data race by construction, so the constructor aborts
  /// loudly instead of silently dropping the caller's sink — per-batch
  /// stats are aggregated race-free into BatchStats and the registry.
  /// The result spec is overridden per item by BatchItem::result.
  ///
  /// eval.parallel composes safely with the pool (nesting policy): the
  /// only partitioned kernel, the descendant scan, draws on the single
  /// process-wide exec::Executor of hardware_concurrency()-1 threads, so
  /// N batch workers with parallel items never create N × max_workers
  /// threads — total threads stay capped at the hardware no matter how
  /// the two layers are combined. A batch worker that picks up a
  /// parallel item simply shares the executor; if the executor is
  /// saturated, the worker runs the remaining chunks itself, and if the
  /// evaluation is itself running on an executor thread
  /// (Executor::InParallelRegion), its scans run sequentially. Results
  /// stay deterministic either way; only wall-clock changes. Rule of
  /// thumb: keep parallel off for batches of many small queries (the
  /// pool is the parallelism) and turn it on when single heavy
  /// descendant scans dominate the batch (steps answered from the index
  /// always run sequentially).
  EvalOptions eval;
  /// Bound on distinct cached plans (LRU beyond it).
  size_t plan_cache_capacity = 1024;
  /// Variable bindings for every compile going through the cache.
  xpath::CompileOptions compile;
  /// Force-build each distinct document's lazy caches (search index,
  /// id-axis, number cache) before fan-out, so workers only ever read.
  /// First-touch under contention is safe either way; warming keeps the
  /// O(|D|) builds out of measured query latency.
  bool warm_documents = true;
  /// Where the pool publishes its serve-tier metrics — per-item latency
  /// and queue-wait histograms, per-worker utilization, item/error
  /// counters — and where its PlanCache and worker sessions publish
  /// theirs. Null means the process-wide obs::Registry::Global(). Must
  /// outlive the BatchEvaluator.
  obs::Registry* registry = nullptr;
};

/// Inter-query parallel evaluation: a fixed pool of worker threads, one
/// PR-2 Evaluator session (pooled arena + scratch) pinned to each
/// worker, and one shared PlanCache, evaluating N queries × M documents
/// concurrently (Sato et al.'s inter-query parallelism, the
/// low-hanging throughput win for read-only XPath workloads).
///
/// Concurrency contract (machine-checked by the TSan CI job):
///  - Documents are shared read-only; their lazy caches synchronize
///    first touch, and warm_documents pre-builds them.
///  - Compiled plans are shared const; engines never write into them.
///  - Each Evaluator session is touched by exactly one worker at a time.
///  - Results land in per-item slots; EvaluateAll returns them in item
///    order, so output is deterministic regardless of scheduling.
///
/// The pool is persistent: construct once, call EvaluateAll() any number
/// of times (calls are serialized — one batch runs at a time; concurrent
/// callers queue on an internal mutex). The plan cache persists across
/// batches, so steady-state workloads run fully warm.
///
/// This pool is the evaluation backend of xpe::serve (serve/server.h):
/// the HTTP front door micro-batches admitted requests onto
/// EvaluateAll, with plans pre-resolved per tenant (BatchItem::plan)
/// and per-request budgets applied via BatchItem::eval — see
/// docs/architecture.md for the full request data-flow.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const BatchOptions& options = {});
  ~BatchEvaluator();

  BatchEvaluator(const BatchEvaluator&) = delete;
  BatchEvaluator& operator=(const BatchEvaluator&) = delete;

  /// Evaluates every item and returns results in item order. Per-item
  /// failures (compile errors, bad contexts) land in that item's slot;
  /// they never abort the batch.
  std::vector<BatchResult> EvaluateAll(const std::vector<BatchItem>& items);

  /// Stats of the most recent EvaluateAll(). Returns a snapshot copy:
  /// concurrent callers are supported, so a reference could be written
  /// behind the reader's back.
  BatchStats last_batch_stats() const;

  PlanCache& plan_cache() { return *cache_; }
  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  struct Batch;  // in-flight batch state (batch_evaluator.cc)

  void WorkerLoop(int worker_index);

  const BatchOptions options_;
  obs::Registry* registry_;  // resolved in the constructor, never null
  std::unique_ptr<PlanCache> cache_;

  // Serve-tier metrics, resolved once at construction.
  obs::Counter* items_total_;
  obs::Counter* errors_total_;
  obs::Histogram* item_latency_us_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* worker_utilization_pct_;

  // One session per worker, created up front and only ever touched by
  // that worker (index-matched to threads_).
  std::vector<std::unique_ptr<Evaluator>> sessions_;

  std::mutex batch_mu_;  // serializes EvaluateAll callers

  // Pool signalling: submit_ wakes workers when batch_ is set or
  // shutdown_ goes true; done_ wakes the submitter when the last worker
  // finishes. Mutable so the stats snapshot accessor stays const.
  mutable std::mutex mu_;
  std::condition_variable submit_;
  std::condition_variable done_;
  Batch* batch_ = nullptr;  // owned by EvaluateAll's frame
  uint64_t generation_ = 0;
  bool shutdown_ = false;

  BatchStats last_stats_;
  std::vector<std::thread> threads_;
};

}  // namespace xpe::batch

#endif  // XPE_BATCH_BATCH_EVALUATOR_H_
