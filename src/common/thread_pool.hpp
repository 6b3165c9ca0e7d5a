// A small fixed-size thread pool with a parallel_for helper.
//
// Used to fan out embarrassingly parallel work: per-VM-class
// Wagner-Whitin solves, Monte-Carlo trials in the rolling-horizon
// simulator, the SARIMA order grid search, and the workers of a
// parallel branch & bound.  All parallelism in rrp flows through this
// pool so determinism is preserved: tasks receive their index and write
// to pre-sized slots; no cross-task RNG sharing.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace rrp {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future propagates exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) on the caller and at most size() - 1
  /// helpers, blocking until all complete.  The first captured exception
  /// is rethrown on the caller's thread.  While a helper is unfinished
  /// the caller runs queued pool tasks instead of parking, so nested
  /// fan-out (parallel solves inside a parallel sweep) cannot deadlock
  /// the fixed-size pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Pops one queued task (if any) and runs it on the calling thread.
  /// Returns false when the queue was empty.
  bool try_execute_one();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ RRP_GUARDED_BY(mutex_);
  bool stopping_ RRP_GUARDED_BY(mutex_) = false;
};

/// Shared process-wide pool for library internals.
ThreadPool& global_pool();

}  // namespace rrp
