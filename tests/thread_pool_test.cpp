// Unit tests for the work-stealing thread pool that backs the parallel
// round-elimination engine: every task runs exactly once, batches are
// barriers, parallel_for covers ranges exactly, and the degenerate
// zero-worker pool runs inline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/budget.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run_batch(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  pool.run_batch({});
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&ran] { ran.push_back(std::this_thread::get_id()); });
  }
  pool.run_batch(std::move(tasks));
  ASSERT_EQ(ran.size(), 5u);
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, RunBatchIsABarrier) {
  // Tasks of uneven duration: after run_batch returns, all of them must
  // have published their writes (exercises stealing, since the slow tasks
  // cluster on whichever deques they were dealt to).
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<int> out(kTasks, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&out, i] {
      if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      out[i] = static_cast<int>(i) + 1;
    });
  }
  pool.run_batch(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back([&sum] { sum.fetch_add(1); });
    pool.run_batch(std::move(tasks));
  }
  EXPECT_EQ(sum.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1237;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 16, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> singleton{0};
  pool.parallel_for(7, 8, 4, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 7u);
    EXPECT_EQ(hi, 8u);
    singleton.fetch_add(1);
  });
  EXPECT_EQ(singleton.load(), 1);
}

TEST(ThreadPool, CancellationStress) {
  // Pattern used by the parallel relaxation search: tasks poll a shared
  // SearchBudget, one of them cancels it early, and run_batch must still
  // retire every task (cancellation is cooperative, not an abort). Repeat
  // many rounds; the pool stays reusable throughout. CI runs this under
  // ASan/UBSan to prove no task or allocation leaks.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    SearchBudget budget;
    constexpr std::size_t kTasks = 16;
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> finished{0};
    std::atomic<std::size_t> stopped_early{0};
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back([&, i] {
        started.fetch_add(1);
        if (i == round % kTasks) budget.cancel();  // one task is the "winner"
        for (int spin = 0; spin < 5000; ++spin) {
          if (budget.halted()) {
            stopped_early.fetch_add(1);
            break;
          }
        }
        finished.fetch_add(1);
      });
    }
    pool.run_batch(std::move(tasks));
    // The barrier holds even when the budget tripped mid-batch.
    EXPECT_EQ(started.load(), kTasks);
    EXPECT_EQ(finished.load(), kTasks);
    EXPECT_GE(stopped_early.load(), 1u);
    EXPECT_TRUE(budget.halted());
    EXPECT_EQ(budget.reason(), ExhaustReason::kCancelled);
  }
  // Pool still healthy after the churn.
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tail;
  for (int i = 0; i < 8; ++i) tail.push_back([&sum] { sum.fetch_add(1); });
  pool.run_batch(std::move(tail));
  EXPECT_EQ(sum.load(), 8);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

}  // namespace
}  // namespace slocal
