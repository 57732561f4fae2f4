#include "common/thread_pool.h"

#include <algorithm>

namespace kf {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::RunJob(ParallelJob* job) {
  for (;;) {
    const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->count) return;
    job->body(i);
  }
}

bool ThreadPool::TryRunJob(ParallelJob& job) {
  {
    std::lock_guard lock(mutex_);
    // Another loop is already in flight (concurrent caller, or a nested
    // ParallelForEach from inside a job body): degrade to inline execution.
    if (job_ != nullptr) return false;
    job_ = &job;
  }
  work_available_.notify_all();
  RunJob(&job);
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [&job] { return job.active_workers == 0; });
  job_ = nullptr;
  return true;
}

void ThreadPool::ParallelForEach(std::size_t count,
                                 FunctionRef<void(std::size_t)> body) {
  if (count == 0) return;
  if (thread_count() > 1 && count > 1) {
    ParallelJob job{body, count};
    if (TryRunJob(job)) return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_available_.wait(lock, [this] {
      return shutting_down_ ||
             (job_ != nullptr &&
              job_->next.load(std::memory_order_relaxed) < job_->count);
    });
    if (job_ != nullptr &&
        job_->next.load(std::memory_order_relaxed) < job_->count) {
      ParallelJob* job = job_;
      ++job->active_workers;
      lock.unlock();
      RunJob(job);
      lock.lock();
      if (--job->active_workers == 0) all_done_.notify_all();
      continue;
    }
    if (shutting_down_) return;
  }
}

}  // namespace kf
