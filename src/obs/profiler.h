#ifndef XPE_OBS_PROFILER_H_
#define XPE_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/stats.h"
#include "src/obs/clock.h"

namespace xpe::obs {

/// The per-query profiling sink behind EvalOptions::profile: phase
/// spans (the compile pipeline's parse → optimize stages plus the
/// dispatcher's eval span) and one runtime row per location-step node
/// of the plan, filled in by the step kernels (step_common.h) as the
/// engines run.
///
/// Cost contract: when no sink is attached the engines pay exactly one
/// null-pointer check per step-kernel call — no locks, no clock reads
/// (bench_obs gates this). With a sink attached every kernel call reads
/// the monotonic clock twice; per-origin engine loops (MINCONTEXT's
/// inner paths) call the kernel once per origin, so profiling them is
/// meaningfully slower — profiling is a diagnosis mode, not a serving
/// mode.
///
/// Like EvalStats, a QueryProfile is single-threaded: one sink per
/// evaluation (or per session), never shared across workers.
class QueryProfile {
 public:
  /// One pipeline phase (e.g. "parse", "optimize", "eval").
  struct Phase {
    std::string name;
    uint64_t wall_ns = 0;
  };

  /// Accumulated runtime of one location-step node of the plan,
  /// addressed by its parse-tree id (xpath::AstId) — the join key
  /// against the static plan report (xpath::Explain / QueryTree).
  struct Step {
    uint32_t ast_id = 0;
    uint64_t calls = 0;          // kernel invocations (per-origin loops > 1)
    uint64_t wall_ns = 0;        // total wall time inside the kernel
    uint64_t frontier = 0;       // input nodes consumed, summed over calls
    uint64_t produced = 0;       // output nodes, summed over calls
    uint64_t nodes_visited = 0;  // same accounting as EvalStats::nodes_visited
    uint64_t indexed_calls = 0;  // answered from the document index
    uint64_t scanned_calls = 0;  // answered by an O(|D|) axis scan
    /// Widest partition any call of this step ran with: 1 = every call
    /// was sequential, >1 = EvalOptions::parallel split the step into
    /// that many concurrent chunk streams (exec/parallel_step.h). Max
    /// over calls, not a sum — per-origin loops make sums meaningless.
    uint32_t workers_used = 1;
  };

  void RecordPhase(std::string_view name, uint64_t wall_ns);

  void RecordStep(uint32_t ast_id, uint64_t wall_ns, uint64_t frontier,
                  uint64_t produced, uint64_t nodes_visited, bool indexed,
                  uint32_t workers = 1);

  const std::vector<Phase>& phases() const { return phases_; }
  /// Step rows in first-touch order (evaluation order for a single
  /// path; stable across reruns of the same plan).
  const std::vector<Step>& steps() const { return steps_; }

  /// Sum of the rows' nodes_visited — equals the evaluation's
  /// EvalStats::nodes_visited, since StepContext::RecordStep
  /// (core/step_common.h) writes both (pinned across the differential
  /// corpus by tests/differential_test.cc).
  uint64_t nodes_visited_total() const;
  uint64_t step_wall_ns_total() const;

  void Clear();

  /// The raw rows as a plain table (ast ids, no plan join). The
  /// annotated report most callers want is Query::Profile() (query.h),
  /// which joins these rows with the plan's step renderings.
  std::string ToString() const;

 private:
  std::vector<Phase> phases_;
  std::vector<Step> steps_;
};

/// What Query::Profile() returns: the runtime profile, the run's
/// counters, and the joined human-readable report (the static
/// xpath::Explain plan annotated with the per-step runtime rows).
struct ProfileReport {
  QueryProfile data;
  EvalStats stats;
  std::string text;
};

}  // namespace xpe::obs

#endif  // XPE_OBS_PROFILER_H_
