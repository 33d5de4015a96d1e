// A small fixed-size worker pool: net::Server runs one long-lived handler
// task per accepted connection on it (net/server.h). Tasks are plain
// std::function thunks; Submit never blocks, and the destructor runs every
// task still queued before it joins the workers.
//
// Tasks must not throw — error propagation is by value (capture a Status
// slot per task). Keeping the pool exception-free keeps the sanitizer
// builds honest about what crosses thread boundaries.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prefsql {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(size_t threads);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs on some worker thread.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace prefsql
