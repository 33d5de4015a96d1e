#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace prefsql {

ThreadPool::ThreadPool(size_t threads) {
  threads = std::max<size_t>(1, threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    task_ready_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutting down, every task run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace prefsql
