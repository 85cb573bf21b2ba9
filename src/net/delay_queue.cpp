#include "net/delay_queue.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace fwkv::net {

DelayQueue::DelayQueue() : thread_([this] { loop(); }) {}

DelayQueue::~DelayQueue() { shutdown(); }

void DelayQueue::run_after(std::chrono::nanoseconds delay,
                           std::function<void()> fn) {
  run_at(Clock::now() + delay, std::move(fn));
}

void DelayQueue::run_at(Clock::time_point when, std::function<void()> fn) {
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    earliest = queue_.empty() || when < queue_.top().when;
    queue_.push(Entry{when, next_seq_++, std::move(fn)});
  }
  // The dispatcher sleeps until the earliest deadline; any later entry is
  // seen when it wakes, so only a new earliest one needs to wake it.
  if (earliest) cv_.notify_one();
}

std::size_t DelayQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void DelayQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void DelayQueue::loop() {
#ifdef __linux__
  // Linux lets a timed wait end up to the thread's timer slack (50 us by
  // default) late, which is more than a whole simulated LAN hop. The slack
  // is a per-thread attribute; this sets the dispatcher's own to 1 ns.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stop_) return;
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      continue;
    }
    const auto when = queue_.top().when;
    if (Clock::now() < when) {
      cv_.wait_until(lock, when);
      continue;
    }
    // const_cast: priority_queue::top() is const but we are about to pop;
    // moving the std::function out avoids a copy.
    auto fn = std::move(const_cast<Entry&>(queue_.top()).fn);
    queue_.pop();
    lock.unlock();
    fn();
    lock.lock();
  }
}

}  // namespace fwkv::net
