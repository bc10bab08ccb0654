#ifndef XPE_CORE_EVALUATOR_H_
#define XPE_CORE_EVALUATOR_H_

#include <memory>
#include <vector>

#include "src/axes/arena.h"
#include "src/axes/node_table.h"
#include "src/core/engine.h"
#include "src/obs/metrics.h"

namespace xpe {

/// Per-session scratch memory shared by all polynomial engines: a
/// monotonic EvalArena for evaluation-lifetime tables (NodeTable rows and
/// key slots, see node_table.h) plus pools of reusable std::vector
/// buffers for inner-loop scratch whose capacity must be reclaimed
/// immediately.
///
/// Lifetime rules:
///  - Arena allocations live until the next BeginEvaluation(); engines
///    may therefore hand arena-backed spans around freely within one
///    evaluation but must copy anything that escapes it (NodeSet/Value
///    results are such copies).
///  - A NodeTable's key-slot array is one of the arena's pooled arrays:
///    it is the table's until the next BeginEvaluation(), which returns
///    it to the pool with its contents. The next table to take it gets a
///    fresh stamp, under which every slot an earlier table wrote reads
///    as "no row", so the session keeps the arrays and never clears them.
///  - Scratch handles return their buffer to the pool on destruction;
///    the buffer's *capacity* is retained, so steady-state acquisition
///    performs no heap allocation. Handles must not outlive the
///    workspace.
///
/// Not thread-safe: one workspace (one Evaluator) per thread.
class EvalWorkspace {
 public:
  EvalWorkspace() = default;
  EvalWorkspace(const EvalWorkspace&) = delete;
  EvalWorkspace& operator=(const EvalWorkspace&) = delete;

  EvalArena* arena() { return &arena_; }
  const EvalArena& arena_ref() const { return arena_; }

  /// RAII handle on a pooled std::vector<NodeId>; cleared on acquire.
  class ScratchIds {
   public:
    ScratchIds(EvalWorkspace* ws, std::unique_ptr<std::vector<xml::NodeId>> v)
        : ws_(ws), vec_(std::move(v)) {}
    ScratchIds(ScratchIds&&) = default;
    ScratchIds& operator=(ScratchIds&&) = default;
    ~ScratchIds() {
      if (vec_ != nullptr) ws_->id_pool_.push_back(std::move(vec_));
    }
    std::vector<xml::NodeId>& operator*() { return *vec_; }
    const std::vector<xml::NodeId>& operator*() const { return *vec_; }
    std::vector<xml::NodeId>* operator->() { return vec_.get(); }
    std::vector<xml::NodeId>* get() { return vec_.get(); }

   private:
    EvalWorkspace* ws_;
    std::unique_ptr<std::vector<xml::NodeId>> vec_;
  };
  ScratchIds AcquireIds();

  /// RAII handle on a pooled byte buffer, sized to `n` and zero-filled
  /// (a NodeBitmap replacement whose capacity is reused).
  class ScratchBits {
   public:
    ScratchBits(EvalWorkspace* ws, std::unique_ptr<std::vector<uint8_t>> v)
        : ws_(ws), vec_(std::move(v)) {}
    ScratchBits(ScratchBits&&) = default;
    ScratchBits& operator=(ScratchBits&&) = default;
    ~ScratchBits() {
      if (vec_ != nullptr) ws_->bit_pool_.push_back(std::move(vec_));
    }
    bool Test(xml::NodeId id) const { return (*vec_)[id] != 0; }
    void Set(xml::NodeId id) { (*vec_)[id] = 1; }
    void Clear(xml::NodeId id) { (*vec_)[id] = 0; }

   private:
    EvalWorkspace* ws_;
    std::unique_ptr<std::vector<uint8_t>> vec_;
  };
  ScratchBits AcquireBits(size_t n);

  /// Recycles the arena for a fresh evaluation (blocks retained).
  void BeginEvaluation() { arena_.Reset(); }

 private:
  EvalArena arena_;
  std::vector<std::unique_ptr<std::vector<xml::NodeId>>> id_pool_;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> bit_pool_;
};

/// An evaluation session: owns an EvalWorkspace and runs any number of
/// evaluations — different queries, documents, contexts, engines — on
/// it. Each call recycles the arena and reuses the scratch pools, so a
/// session serving repeated queries converges to zero allocations per
/// call where a one-shot Evaluate() pays the full table setup every
/// time. Results are plain owning values, independent of the session.
///
/// Equivalence guarantee: Evaluator::Evaluate(q, d, c, o) returns
/// bit-for-bit the same result as the free Evaluate(q, d, c, o), which
/// is itself just a one-shot session (see engine.h).
///
/// One Evaluator must not be used from two threads at once; for
/// concurrent serving create one session per thread — evaluations over
/// a shared Document are race-free (its lazy caches are synchronized).
/// batch::BatchEvaluator packages exactly that pattern: a worker pool
/// with one session pinned per worker behind a shared plan cache, with
/// the whole arrangement run under ThreadSanitizer in CI.
///
/// Most single-query callers want xpe::Query (query.h) instead: it owns
/// one of these sessions internally and adds the typed, early-
/// terminating result verbs. Use a bare Evaluator when many different
/// compiled queries should share one session's memory.
class Evaluator {
 public:
  Evaluator() = default;
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  StatusOr<Value> Evaluate(const xpath::CompiledQuery& query,
                           const xml::Document& doc,
                           const EvalContext& context = {},
                           const EvalOptions& options = {});
  StatusOr<NodeSet> EvaluateNodeSet(const xpath::CompiledQuery& query,
                                    const xml::Document& doc,
                                    const EvalContext& context = {},
                                    const EvalOptions& options = {});

  /// Arena footprint the session has converged to — the real-memory
  /// counterpart of EvalStats::cells_peak.
  size_t arena_bytes_reserved() const {
    return workspace_.arena_ref().bytes_reserved();
  }
  size_t arena_bytes_peak() const {
    return workspace_.arena_ref().bytes_peak();
  }
  /// Malloc-level block allocations the arena has ever made; constant
  /// across calls once the session has warmed up.
  uint64_t arena_block_allocations() const {
    return workspace_.arena_ref().block_allocations();
  }

  /// Publishes per-evaluation session metrics into `registry` (pass
  /// nullptr to detach): evals served, eval latency histogram, arena
  /// bytes high-water mark, and how many evaluations ran entirely from
  /// retained arena memory (the reuse ratio is reused/total). Metric
  /// names are xpe_session_*; all sessions publishing into one registry
  /// aggregate — per-session breakdowns want per-session registries.
  /// The registry must outlive the session.
  void AttachMetrics(obs::Registry* registry);

 private:
  EvalWorkspace workspace_;
  // Resolved once by AttachMetrics; updates are single relaxed atomics.
  obs::Counter* evals_total_ = nullptr;
  obs::Counter* arena_reused_evals_ = nullptr;
  obs::Counter* arena_bytes_peak_metric_ = nullptr;
  obs::Histogram* eval_latency_us_ = nullptr;
};

}  // namespace xpe

#endif  // XPE_CORE_EVALUATOR_H_
