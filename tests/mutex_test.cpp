#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace fwkv {
namespace {

using namespace std::chrono_literals;

TEST(MutexTest, ExcludesConcurrentWriters) {
  Counter contended;
  Mutex mu(&contended);
  int sum = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100000; ++i) {
        std::lock_guard<Mutex> lock(mu);
        ++sum;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum, 400000);
}

TEST(MutexTest, UncontendedLocksCountNothing) {
  Counter contended;
  Mutex mu(&contended);
  for (int i = 0; i < 10000; ++i) {
    mu.lock();
    mu.unlock();
  }
  EXPECT_EQ(contended.get(), 0u);
}

TEST(MutexTest, BusyLockIsCounted) {
  Counter contended;
  Mutex mu(&contended);
  std::atomic<bool> held{false};
  std::thread holder([&] {
    std::lock_guard<Mutex> lock(mu);
    held = true;
    std::this_thread::sleep_for(20ms);
  });
  while (!held) std::this_thread::yield();
  mu.lock();  // the holder sleeps with the lock: the first try fails
  mu.unlock();
  holder.join();
  EXPECT_GE(contended.get(), 1u);
}

TEST(MutexTest, ConditionVariableAnyWakesWaiter) {
  // MvNodeBase::catch_up waits on site_mu_ this way.
  Mutex mu;
  std::condition_variable_any cv;
  bool ready = false;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    std::unique_lock<Mutex> lock(mu);
    woke = cv.wait_for(lock, 10s, [&] { return ready; });
  });
  std::this_thread::sleep_for(5ms);
  {
    std::lock_guard<Mutex> lock(mu);
    ready = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace fwkv
