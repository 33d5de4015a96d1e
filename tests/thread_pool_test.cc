#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace prefsql {
namespace {

// Every case synchronises on the pool's destructor, which runs the queued
// tasks and joins the workers.

TEST(ThreadPoolTest, DestructorRunsEveryPendingTask) {
  std::atomic<int> counter{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(1);
    // The one worker blocks in the first task, so the rest are still queued
    // when the destructor starts.
    pool.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    release.store(true);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestroyingAnIdlePoolReturns) {
  { ThreadPool pool(2); }  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroRequestedThreadsStillRunsTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(0);
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 1);
}

// net::Server parks one long-lived handler per connection on the pool, so
// `threads` tasks must be able to run at once: each of these waits until
// all of them have started.
TEST(ThreadPoolTest, RunsAsManyTasksAtOnceAsItHasThreads) {
  constexpr int kThreads = 3;
  std::atomic<int> started{0};
  std::atomic<int> timed_out{0};
  {
    ThreadPool pool(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pool.Submit([&started, &timed_out] {
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < kThreads) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out.fetch_add(1);
            return;
          }
          std::this_thread::yield();
        }
      });
    }
  }
  EXPECT_EQ(started.load(), kThreads);
  EXPECT_EQ(timed_out.load(), 0);
}

TEST(ThreadPoolTest, TasksMaySubmitFromManyThreads) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&pool, &counter] {
        for (int i = 0; i < 100; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    for (auto& t : producers) t.join();
  }
  EXPECT_EQ(counter.load(), 400);
}

}  // namespace
}  // namespace prefsql
