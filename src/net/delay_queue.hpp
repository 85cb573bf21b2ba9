// Timer service used by the SimNetwork to deliver messages after their
// simulated latency (and to inject the delayed-Propagate scenario of
// Figs. 7 / 9a).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fwkv::net {

/// Single-threaded scheduler: run_at(t, fn) executes fn on the dispatcher
/// thread at (or shortly after) time t. Entries with equal deadlines run in
/// submission order, which keeps same-latency FIFO channels FIFO. The
/// dispatcher runs with a minimal timer slack, and a submission wakes it
/// only when it becomes the earliest deadline.
class DelayQueue {
 public:
  using Clock = std::chrono::steady_clock;

  DelayQueue();
  ~DelayQueue();

  DelayQueue(const DelayQueue&) = delete;
  DelayQueue& operator=(const DelayQueue&) = delete;

  void run_after(std::chrono::nanoseconds delay, std::function<void()> fn);
  void run_at(Clock::time_point when, std::function<void()> fn);

  /// Number of entries not yet dispatched (for quiescence checks in tests).
  std::size_t pending() const;

  /// Stop the dispatcher; pending entries are dropped.
  void shutdown();

 private:
  struct Entry {
    Clock::time_point when;
    std::uint64_t seq;  // tie-break: submission order
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  void loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace fwkv::net
