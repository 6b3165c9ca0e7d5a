// TSan-targeted stress tests for rrp::ThreadPool: concurrent
// submit/wait from many caller threads, overlapping parallel_for calls,
// exception propagation out of tasks, rapid construct/drain/destroy
// churn, and parallel_for nested inside a saturated pool.  Run under
// -fsanitize=thread in CI (see .github/workflows).
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace {

TEST(ThreadPoolStress, ConcurrentSubmitAndWaitFromManyThreads) {
  rrp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kThreads = 8;
  constexpr int kTasksPerThread = 128;
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futs;
      futs.reserve(kTasksPerThread);
      for (int i = 0; i < kTasksPerThread; ++i) {
        futs.push_back(pool.submit(
            [&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kThreads * kTasksPerThread);
}

TEST(ThreadPoolStress, OverlappingParallelForCalls) {
  rrp::ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kItems = 256;
  std::vector<std::vector<int>> out(kCallers, std::vector<int>(kItems, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &out, c] {
      pool.parallel_for(kItems, [&out, c](std::size_t i) {
        out[c][i] = static_cast<int>(i) + 1;
      });
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(out[c][i], static_cast<int>(i) + 1)
          << "caller " << c << " item " << i;
    }
  }
}

TEST(ThreadPoolStress, SubmitPropagatesTaskException) {
  rrp::ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("task failure"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool must stay usable after a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPoolStress, ParallelForPropagatesFirstException) {
  rrp::ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(128,
                        [&ran](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i % 17 == 3) throw rrp::Error("boom");
                        }),
      rrp::Error);
  // Every index was visited exactly once despite the failures.
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPoolStress, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  constexpr int kRounds = 32;
  constexpr int kTasks = 24;
  for (int round = 0; round < kRounds; ++round) {
    rrp::ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      // Futures intentionally dropped: shutdown must still run the task.
      (void)pool.submit(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), kRounds * kTasks);
}

TEST(ThreadPoolStress, ChurnConstructDestroyWhileBusy) {
  std::atomic<int> alive{0};
  for (int round = 0; round < 16; ++round) {
    rrp::ThreadPool pool(2);
    std::vector<std::future<void>> futs;
    futs.reserve(8);
    for (int i = 0; i < 8; ++i) {
      futs.push_back(pool.submit([&alive] {
        alive.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        alive.fetch_sub(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futs) f.get();
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(ThreadPoolStress, GlobalPoolSharedAcrossThreads) {
  std::atomic<int> counter{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&counter] {
      rrp::global_pool().parallel_for(64, [&counter](std::size_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(counter.load(), 4 * 64);
}

// Both pool threads run an outer task before either fans out, so each
// parallel_for's helper waits in the queue with no free worker: the
// callers must run it themselves instead of parking on its future.
TEST(ThreadPoolStress, NestedParallelForInSaturatedPoolCompletes) {
  auto run = std::async(std::launch::async, [] {
    rrp::ThreadPool pool(2);
    std::latch both_running(2);
    std::atomic<std::size_t> sum{0};
    std::vector<std::future<void>> outer;
    for (int t = 0; t < 2; ++t) {
      outer.push_back(pool.submit([&] {
        both_running.arrive_and_wait();
        pool.parallel_for(4, [&sum](std::size_t i) { sum.fetch_add(i); });
      }));
    }
    for (auto& f : outer) f.get();
    return sum.load();
  });
  // A deadlocked pool never returns; fail fast instead of hanging until
  // the test driver's timeout.
  if (run.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "nested parallel_for deadlocked the pool";
    std::fflush(stdout);
    std::_Exit(1);
  }
  EXPECT_EQ(run.get(), 2u * (0 + 1 + 2 + 3));
}

}  // namespace
