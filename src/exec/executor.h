#ifndef XPE_EXEC_EXECUTOR_H_
#define XPE_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xpe::exec {

/// A fixed pool of worker threads executing chunked fork/join jobs — the
/// engine behind intra-query parallelism (parallel_step.h).
///
/// Scheduling model: Run(n, w, fn) publishes a job of n tasks; the caller
/// immediately starts claiming tasks itself and up to w-1 idle pool
/// threads join in. Claiming is work-stealing at chunk granularity: every
/// participant steals the next unclaimed task index from the job's atomic
/// cursor, so a slow chunk never blocks the others and load balances
/// without per-task queues. Tasks key any scratch they write by task
/// index (parallel_step.cc keeps one output run per task).
///
/// Concurrency contract (machine-checked by the TSan CI job):
///  - Run blocks until every task of its job has finished; task effects
///    are visible to the caller afterwards (release/acquire on the job's
///    completion counter).
///  - Tasks of one job may run concurrently; `fn` must only write state
///    disjoint per task (or atomics).
///  - Nested Run calls from inside a task run inline on the calling
///    thread (InParallelRegion) — parallel regions never recurse, so a
///    kernel that is itself a chunk cannot deadlock the pool or
///    oversubscribe it.
///
/// Thread budget: the shared pool has hardware_concurrency()-1 threads,
/// created once, no matter how many sessions evaluate in parallel — this
/// is what makes EvalOptions::parallel compose safely with
/// batch::BatchEvaluator (N batch workers share the same pool instead of
/// spawning N x max_workers threads). On a single-core machine the pool
/// is empty and the caller simply runs all chunks itself — same results,
/// same stats, no threads.
class Executor {
 public:
  /// fn(task): task in [0, num_tasks).
  using TaskFn = std::function<void(uint32_t task)>;

  explicit Executor(unsigned pool_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs fn for every task index in [0, num_tasks), on this thread plus
  /// up to max_workers-1 pool threads, and blocks until all have
  /// finished. Degenerate shapes (one task, one worker, empty pool,
  /// nested call) run inline on the caller, in task order.
  void Run(uint32_t num_tasks, uint32_t max_workers, const TaskFn& fn);

  unsigned pool_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// The process-wide pool (hardware_concurrency()-1 threads, lazily
  /// constructed, joined at static destruction).
  static Executor& Shared();

  /// True while the current thread is executing a task of some job —
  /// i.e. a Run call from here would run inline. Engines consult this
  /// when resolving a ParallelPolicy so nested evaluation (a predicate
  /// evaluated inside a chunk, a sink that evaluates another query)
  /// stays sequential by construction.
  static bool InParallelRegion();

 private:
  struct Job {
    const TaskFn* fn = nullptr;
    uint32_t num_tasks = 0;
    /// Max participants (caller included); pool threads claim slots
    /// 1..max_slots-1 under the executor mutex.
    uint32_t max_slots = 1;
    uint32_t slots_claimed = 1;  // guarded by Executor::mu_
    /// The work-stealing cursor: next unclaimed task index.
    std::atomic<uint32_t> next{0};
    /// Tasks not yet finished; the last finisher signals done.
    std::atomic<uint32_t> remaining{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
  };

  void WorkerLoop();
  /// Claims tasks from `job` until the cursor runs past the end.
  static void RunTasks(Job& job);
  /// Claims a slot in a queued job this worker may still join
  /// (unclaimed tasks and a free slot), or returns nullptr. Requires
  /// mu_.
  std::shared_ptr<Job> FindClaimableLocked();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> jobs_;  // FIFO: older jobs finish first
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace xpe::exec

#endif  // XPE_EXEC_EXECUTOR_H_
