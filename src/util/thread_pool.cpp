#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace sfn::util {

ThreadPool::ThreadPool(std::size_t threads) : ThreadPool(threads, [] {}) {}

ThreadPool::ThreadPool(std::size_t threads,
                       const std::function<void()>& on_start) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, on_start] {
      on_start();
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const MutexLock lock(mutex_);
    if (stop_) {
      // Workers drain the queue before exiting, but nothing re-checks it
      // after the last join: a task slipped in post-shutdown would never
      // run and its future would block forever. Fail loudly instead
      // (§14 finding F1).
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) {
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::future<void>> futures;
  const std::size_t workers = std::min(count, workers_.size());
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        fn(i);
      }
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) {
        cv_.wait(mutex_);
      }
      if (stop_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace sfn::util
