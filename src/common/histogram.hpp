// Lock-free-ish metric primitives: counters and value accumulators. Both
// are safe for concurrent recording and are merged single-threaded after a
// run.
#pragma once

#include <atomic>
#include <cstdint>

namespace fwkv {

/// Relaxed atomic counter. Metrics tolerate relaxed ordering; they are only
/// read after the workload threads join.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Sum + count of a stream of values (e.g. collectedSet sizes, Fig. 6).
class Accumulator {
 public:
  void record(std::uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace fwkv
