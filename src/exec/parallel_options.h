#ifndef XPE_EXEC_PARALLEL_OPTIONS_H_
#define XPE_EXEC_PARALLEL_OPTIONS_H_

#include <cstdint>

namespace xpe::exec {

/// Intra-query parallelism knobs (EvalOptions::parallel). One *query* is
/// parallelized by partitioning its descendant scans — a descendant
/// step's subtree-interval domain on the scan path — into chunks that
/// run on the process-wide exec::Executor pool and concatenate in
/// document order. Indexed steps and every other axis stay sequential.
/// Results, EvalStats and every profiler field but `workers_used` are
/// identical to sequential evaluation by construction
/// (tests/parallel_test.cc holds them bit-identical); only wall-clock
/// changes.
///
/// Off by default: for small documents or indexed steps the sequential
/// kernels win, and servers usually prefer inter-query parallelism
/// (batch::BatchEvaluator) until a single query is heavy enough to be
/// worth splitting (Sato et al. 2018's analysis; see the README's
/// "Parallel evaluation" section).
struct ParallelOptions {
  /// Master switch. When false the engines never touch the executor.
  bool enabled = false;
  /// Partition width: the maximum number of chunks being worked on at
  /// once, i.e. the caller plus up to max_workers-1 pool threads.
  /// 0 = std::thread::hardware_concurrency(). This bounds the *split*,
  /// not thread creation: all queries share one fixed process-wide pool
  /// of hardware_concurrency()-1 threads, so any number of concurrent
  /// parallel evaluations (e.g. under BatchEvaluator) never multiplies
  /// threads. Values above the hardware only make chunks smaller.
  uint32_t max_workers = 0;
  /// Work-unit cutoff: a descendant scan whose covered subtree-interval
  /// length is below this stays sequential — fan-out overhead dwarfs
  /// small steps. The default is conservative; tests set 1 to force
  /// chunking on tiny documents.
  uint32_t min_frontier = 4096;
};

}  // namespace xpe::exec

#endif  // XPE_EXEC_PARALLEL_OPTIONS_H_
