#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"

namespace rrp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto fut = packaged.get_future();
  {
    MutexLock lock(mutex_);
    RRP_EXPECTS(!stopping_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  Mutex error_mutex;
  auto chunk = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> futs;
  const std::size_t helpers = std::min(size(), n) - 1;
  futs.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) futs.push_back(submit(chunk));
  chunk();  // caller participates
  // Help while waiting: a helper may still sit in the queue behind tasks
  // that themselves wait on this pool, so run queued work rather than
  // park; nap briefly (woken early by the future) when the queue is empty.
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!try_execute_one()) f.wait_for(std::chrono::milliseconds(1));
    }
    f.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

bool ThreadPool::try_execute_one() {
  std::packaged_task<void()> task;
  {
    MutexLock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) cv_.wait(lock);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rrp
