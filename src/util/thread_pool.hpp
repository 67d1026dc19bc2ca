#pragma once

#include "util/annotations.hpp"

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

namespace sfn::util {

/// Minimal fixed-size thread pool used to evaluate independent input
/// problems concurrently (the paper evaluates 20,480 problems; they are
/// embarrassingly parallel across problems, not within one).
///
/// Capability model (DESIGN.md §14): `mutex_` guards the task queue and
/// the stop flag; `workers_` is written only in the constructor, before
/// any other thread can hold a reference to the pool, and is read-only
/// afterwards, so it needs no guard.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency());
  /// As above, with `on_start` run once on each worker thread before it
  /// takes its first task (per-thread settings such as the OpenMP team
  /// size).
  ThreadPool(std::size_t threads, const std::function<void()>& on_start);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future resolves when it completes.
  /// Throws std::runtime_error once shutdown has begun — a task accepted
  /// after the workers exited would leave its future forever unresolved.
  std::future<void> submit(std::function<void()> task) SFN_EXCLUDES(mutex_);

  /// Run fn(i) for i in [0, count) across the pool and wait for completion.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() SFN_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ SFN_GUARDED_BY(mutex_);
  bool stop_ SFN_GUARDED_BY(mutex_) = false;
};

}  // namespace sfn::util
