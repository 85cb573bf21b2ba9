// Per-node worker pool for the prepares (Alg. 5) and reads (Alg. 3) that
// come off the DelayQueue timer and would wait for a per-key lock: a timer
// blocked on a lock would starve the Decide that releases it (see
// SimNetwork::offload). Every other delivery runs on the delivering
// thread: a zero-delay request on its sender's (client) thread, which
// waits for the reply anyway, a delayed request whose locks are free on
// the timer, and the non-blocking handlers (Decide, Propagate, Remove,
// ResendRequest) wherever they land. A node's own sessions read local keys
// by a direct call.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fwkv::net {

/// Fixed-size worker pool over a FIFO queue.
class Executor {
 public:
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void submit(std::function<void()> task);

  /// Reject new work and join workers; queued tasks are still drained.
  void shutdown();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fwkv::net
