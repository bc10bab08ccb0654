#include "src/exec/executor.h"

namespace xpe::exec {

namespace {

thread_local bool t_in_parallel_region = false;

/// RAII setter so exceptions (CHECK-abort paths aside) can't leave the
/// flag stuck on a pool thread.
struct RegionGuard {
  RegionGuard() : prev(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = prev; }
  bool prev;
};

}  // namespace

Executor::Executor(unsigned pool_threads) {
  threads_.reserve(pool_threads);
  for (unsigned i = 0; i < pool_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool Executor::InParallelRegion() { return t_in_parallel_region; }

Executor& Executor::Shared() {
  // Meyers singleton (not a leaked `new`): the CI ASan job runs with
  // detect_leaks=1, and the destructor joining the pool at static
  // destruction keeps LSan and TSan both quiet.
  static unsigned hw = std::thread::hardware_concurrency();
  static Executor shared(hw > 1 ? hw - 1 : 0);
  return shared;
}

void Executor::RunTasks(Job& job) {
  for (;;) {
    const uint32_t t = job.next.fetch_add(1, std::memory_order_relaxed);
    if (t >= job.num_tasks) return;
    (*job.fn)(t);
    // acq_rel: the last finisher's load pairs with every finisher's
    // store, so the waiter in Run observes all task side effects.
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(job.done_mu);
      job.done = true;
      job.done_cv.notify_all();
    }
  }
}

std::shared_ptr<Executor::Job> Executor::FindClaimableLocked() {
  for (const std::shared_ptr<Job>& job : jobs_) {
    if (job->slots_claimed >= job->max_slots) continue;
    if (job->next.load(std::memory_order_relaxed) >= job->num_tasks) continue;
    ++job->slots_claimed;
    return job;
  }
  return nullptr;
}

void Executor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] {
        if (shutdown_) return true;
        job = FindClaimableLocked();
        return job != nullptr;
      });
      if (shutdown_) return;
    }
    RegionGuard region;
    RunTasks(*job);
  }
}

void Executor::Run(uint32_t num_tasks, uint32_t max_workers,
                   const TaskFn& fn) {
  if (num_tasks == 0) return;
  if (max_workers <= 1 || num_tasks == 1 || threads_.empty() ||
      t_in_parallel_region) {
    RegionGuard region;
    for (uint32_t t = 0; t < num_tasks; ++t) fn(t);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_tasks = num_tasks;
  job->max_slots = max_workers < num_tasks ? max_workers : num_tasks;
  job->remaining.store(num_tasks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(job);
  }
  wake_.notify_all();

  {
    RegionGuard region;
    RunTasks(*job);  // the caller's slot is claimed at construction
  }
  {
    std::unique_lock<std::mutex> lk(job->done_mu);
    job->done_cv.wait(lk, [&] { return job->done; });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->get() == job.get()) {
        jobs_.erase(it);
        break;
      }
    }
  }
}

}  // namespace xpe::exec
