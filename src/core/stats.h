#ifndef XPE_CORE_STATS_H_
#define XPE_CORE_STATS_H_

#include <cstdint>
#include <string>

namespace xpe {

/// Instrumentation counters shared by all engines. The space measurements
/// (docs/architecture.md, "Paper notes") read cells_peak — wall-clock
/// timing cannot observe the paper's space bounds, so engines report their
/// context-value-table footprint here. Counters are plain fields: engines
/// are single-threaded.
struct EvalStats {
  /// Total context-value-table cells ever written (scalar rows and
  /// relation pairs both count as one cell).
  uint64_t cells_allocated = 0;
  /// Cells live right now.
  uint64_t cells_live = 0;
  /// High-water mark of cells_live: the paper's space usage.
  uint64_t cells_peak = 0;
  /// Single-(sub)expression/context evaluations performed — the unit the
  /// paper's time bounds count, and the unit of EvalOptions::budget.
  /// Every engine but the naive one charges it through one meter
  /// (StepContext::Charge, step_common.h), so an evaluation that trips
  /// its budget reads budget + 1 here; the naive engine stops at budget.
  uint64_t contexts_evaluated = 0;
  /// χ(X)/χ⁻¹(X) computations.
  uint64_t axis_evals = 0;
  /// Location steps answered from the document index's postings instead
  /// of an O(|D|) axis scan (EvalOptions::use_index).
  uint64_t indexed_steps = 0;
  /// Nodes touched by location-step evaluation: frontier nodes consumed
  /// plus candidate nodes examined/produced per step. Charged only by
  /// StepContext::RecordStep (step_common.h) — for StepKernel, the
  /// node-test restriction passes and the dispatcher's two shortcuts —
  /// which writes the same figure into the step's profiler row, so an
  /// evaluation's rows sum to this counter. This is the counter the
  /// early-terminating result modes are verified against: an Exists() /
  /// First() that genuinely short-circuits visits O(1) nodes where the
  /// full materialization visits O(|D|) — wall-clock can lie on a noisy
  /// machine, nodes_visited cannot.
  uint64_t nodes_visited = 0;
  /// Peak bytes of the session arena the tables were built in — the
  /// real-memory counterpart of cells_peak. Set by the dispatcher after
  /// each evaluation (max across evaluations when the sink is shared).
  /// cells_* stay *logical* table cells, the paper's space metric: the
  /// arena's monotonic growth must not inflate them, which is why
  /// engines charge cells at row commit, not at allocation.
  uint64_t arena_bytes_peak = 0;
  /// kCount / count() evaluations answered directly from a postings
  /// CountInRange — the dispatcher's O(log |postings|) fast path — with
  /// no node-set materialized. When this fires, nodes_visited charges
  /// 1 + ⌈log2(postings)⌉ for the binary searches instead of the
  /// materialized set.
  uint64_t count_fast_path = 0;
  /// Evaluations answered by the static analyzer before any engine ran:
  /// the structural summary (Document::summary()) proved the query's
  /// node-set empty — or its boolean/count root constant — so the
  /// dispatcher returned the empty/constant answer directly. When this
  /// fires, nodes_visited charges the analyzer's O(|Q|) step count
  /// instead of a document scan. EvalOptions::analyze gates it.
  uint64_t pruned_by_summary = 0;
  /// Evaluations aborted by EvalOptions::budget (the evaluation returned
  /// kResourceExhausted). Set centrally by the dispatcher, so it is
  /// uniform across engines, tiers and result modes: any reduced reading
  /// (Count(), Exists(), a kLimit prefix) taken alongside
  /// budget_trips != 0 is a partial view, not a complete answer.
  uint64_t budget_trips = 0;

  void AddCells(uint64_t n) {
    cells_allocated += n;
    cells_live += n;
    if (cells_live > cells_peak) cells_peak = cells_live;
  }
  void ReleaseCells(uint64_t n) {
    cells_live = n > cells_live ? 0 : cells_live - n;
  }

  void Reset() { *this = EvalStats(); }

  std::string ToString() const;
};

}  // namespace xpe

#endif  // XPE_CORE_STATS_H_
