#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/histogram.hpp"

namespace fwkv {
namespace {

TEST(CounterTest, AddAndGet) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.add();
  c.add(9);
  EXPECT_EQ(c.get(), 10u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(CounterTest, ConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.get(), 40000u);
}

TEST(AccumulatorTest, TracksSumAndCount) {
  Accumulator a;
  a.record(3);
  a.record(10);
  a.record(7);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 20u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
}

TEST(AccumulatorTest, ConcurrentRecords) {
  Accumulator a;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&a, t] {
      for (int i = 0; i < 5000; ++i) {
        a.record(static_cast<std::uint64_t>(t) * 10000 + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(a.count(), 20000u);
  // 5000 * 10000 * (0 + 1 + 2 + 3) + 4 * (0 + 1 + ... + 4999)
  EXPECT_EQ(a.sum(), 349990000u);
}

}  // namespace
}  // namespace fwkv
