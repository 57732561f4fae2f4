#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace kf {
namespace {

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  // A one-thread pool runs the whole loop inline on the caller.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(10, 0);
  bool on_caller = true;
  pool.ParallelForEach(hits.size(), [&](std::size_t i) {
    ++hits[i];
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(hits, std::vector<int>(10, 1));
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInline) {
  // A single index is not worth waking a worker for.
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.ParallelForEach(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForLargeRangeUsesWorkers) {
  // Every body waits until a second thread has run one: a pool that left the
  // loop to its caller would never get there.
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelForEach(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard lock(mutex);
        threads.insert(std::this_thread::get_id());
        if (threads.size() >= 2) return;
      }
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::yield();
    }
  });
  EXPECT_GE(threads.size(), 2u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEachCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  pool.ParallelForEach(hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEachZeroIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelForEach(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForFallsBackInline) {
  // A ParallelForEach issued from inside a ParallelForEach body must degrade
  // to inline execution on the body's thread, not deadlock.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::atomic<int> off_thread{0};
  pool.ParallelForEach(8, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.ParallelForEach(16, [&](std::size_t) {
      total.fetch_add(1);
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ConcurrentParallelForsFromManyThreads) {
  // Loops from several callers at once: one runs on the pool, the others
  // inline on their callers; every index still runs exactly once.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        pool.ParallelForEach(1000, [&](std::size_t) { total.fetch_add(1); });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4 * 10 * 1000);
}

}  // namespace
}  // namespace kf
