// A small work-stealing-free thread pool with a blocking ParallelForEach.
//
// The pool backs the *functional* execution of staged kernels: each simulated
// CTA chunk becomes one index of a parallel loop. Simulated time never
// depends on the pool — timing comes from the cost model — so the pool only
// needs to be correct, not cleverly scheduled.
//
// ParallelForEach dispatches through a stack-allocated job with an atomic
// index counter: workers (and the calling thread) claim indices with
// fetch_add, so a parallel loop performs zero heap allocations regardless of
// trip count.
#ifndef KF_COMMON_THREAD_POOL_H_
#define KF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.h"

namespace kf {

class ThreadPool {
 public:
  // `thread_count == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Run body(i) for i in [0, count) with one claim per index — for coarse
  // per-chunk work where each index is a whole staged-kernel chunk — and
  // block until done. Executes inline when count is 1, the pool has a single
  // thread, or another loop is already in flight (nested/concurrent calls
  // degrade to serial rather than deadlock).
  void ParallelForEach(std::size_t count, FunctionRef<void(std::size_t)> body);

 private:
  // One fork-join loop, living on the caller's stack for its whole lifetime.
  // `active_workers` is guarded by the pool mutex; the caller only tears the
  // job down after it drops to zero, so no worker can touch a dead job.
  struct ParallelJob {
    FunctionRef<void(std::size_t)> body;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t active_workers = 0;
  };

  void WorkerLoop();
  // Claims and runs indices until the job is exhausted.
  static void RunJob(ParallelJob* job);
  // Installs `job`, participates, and blocks until all helpers leave.
  // Returns false (without running anything) when another job is in flight.
  bool TryRunJob(ParallelJob& job);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::vector<std::thread> workers_;
  ParallelJob* job_ = nullptr;
  bool shutting_down_ = false;
};

}  // namespace kf

#endif  // KF_COMMON_THREAD_POOL_H_
