#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "store/lock_table.hpp"

namespace fwkv::store {
namespace {

using namespace std::chrono_literals;

const TxId kTx1(1, 0, 1);
const TxId kTx2(2, 0, 1);
const TxId kTx3(3, 0, 1);

TEST(LockTableTest, ExclusiveBasics) {
  LockTable locks;
  EXPECT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_TRUE(locks.held_exclusive(1, kTx1));
  EXPECT_FALSE(locks.held_exclusive(1, kTx2));
  locks.unlock_exclusive(1, kTx1);
  EXPECT_FALSE(locks.held_exclusive(1, kTx1));
}

TEST(LockTableTest, ExclusiveExcludesOtherOwners) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_exclusive(1, kTx2, 2ms));
  locks.unlock_exclusive(1, kTx1);
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 1ms));
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, ExclusiveReacquireByOwnerIsIdempotent) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  locks.unlock_exclusive(1, kTx1);
}

TEST(LockTableTest, SharedAllowsMultipleReaders) {
  LockTable locks;
  EXPECT_TRUE(locks.lock_shared(1, kTx1, 1ms));
  EXPECT_TRUE(locks.lock_shared(1, kTx2, 1ms));
  locks.unlock_shared(1, kTx1);
  locks.unlock_shared(1, kTx2);
}

TEST(LockTableTest, SharedBlocksExclusive) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_shared(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_exclusive(1, kTx2, 2ms));
  locks.unlock_shared(1, kTx1);
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 1ms));
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, ExclusiveBlocksShared) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_shared(1, kTx2, 2ms));
  locks.unlock_exclusive(1, kTx1);
  EXPECT_TRUE(locks.lock_shared(1, kTx2, 1ms));
  locks.unlock_shared(1, kTx2);
}

TEST(LockTableTest, DifferentKeysAreIndependent) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_TRUE(locks.lock_exclusive(2, kTx2, 1ms));
  locks.unlock_exclusive(1, kTx1);
  locks.unlock_exclusive(2, kTx2);
}

TEST(LockTableTest, TimedWaitSucceedsWhenReleased) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  std::thread releaser([&] {
    std::this_thread::sleep_for(10ms);
    locks.unlock_exclusive(1, kTx1);
  });
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 500ms));
  releaser.join();
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, WaitingReaderGetsInAtTheNextRelease) {
  // A writer that releases and at once re-locks the key must not starve a
  // reader queued behind it: the reader gets the key at the first release.
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  std::atomic<bool> waiting{false};
  std::atomic<bool> got{false};
  std::atomic<int> releases{0};
  int acquired_after = -1;
  std::thread reader([&] {
    waiting = true;
    if (locks.lock_shared(1, kTx2, 10s)) {
      acquired_after = releases.load();
      got = true;
      locks.unlock_shared(1, kTx2);
    }
  });
  while (!waiting) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the reader block on the key

  for (int i = 0; i < 10000 && !got; ++i) {
    releases.fetch_add(1);
    locks.unlock_exclusive(1, kTx1);
    ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 10s));
  }
  locks.unlock_exclusive(1, kTx1);
  reader.join();
  ASSERT_TRUE(got.load());
  EXPECT_EQ(acquired_after, 1);
}

TEST(LockTableTest, TimedOutReaderNoLongerHoldsBackWriters) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_shared(1, kTx2, 2ms));
  locks.unlock_exclusive(1, kTx1);
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 1ms));
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, MultiKeyAllOrNothing) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(2, kTx1, 1ms));

  std::vector<Key> keys{1, 2, 3};
  EXPECT_FALSE(locks.lock_all_exclusive(keys, kTx2, 2ms));
  // Keys 1 and 3 must have been rolled back.
  EXPECT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_TRUE(locks.lock_exclusive(3, kTx1, 1ms));
  locks.unlock_all_exclusive(std::vector<Key>{1, 2, 3}, kTx1);

  EXPECT_TRUE(locks.lock_all_exclusive(keys, kTx2, 2ms));
  locks.unlock_all_exclusive(keys, kTx2);
}

// A try is a call with a zero timeout.

TEST(LockTableTest, TryAcquiresFailWhereTheBlockingCallsWouldWait) {
  LockTable locks;
  // Held exclusive: only the owner's re-acquisition succeeds.
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_exclusive(1, kTx2, 0ns));
  EXPECT_FALSE(locks.lock_shared(1, kTx2, 0ns));
  EXPECT_TRUE(locks.lock_exclusive(1, kTx1, 0ns));
  locks.unlock_exclusive(1, kTx1);
  // Held shared: readers share, writers are kept out.
  ASSERT_TRUE(locks.lock_shared(1, kTx1, 0ns));
  EXPECT_TRUE(locks.lock_shared(1, kTx2, 0ns));
  EXPECT_FALSE(locks.lock_exclusive(1, kTx2, 0ns));
  locks.unlock_shared(1, kTx1);
  locks.unlock_shared(1, kTx2);
  // Free again: nothing was left behind.
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 0ns));
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, TryAcquiresNeverWait) {
  // The key is released 200 ms after the tries start. A try that waited
  // any time at all would see that release and succeed.
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  std::thread releaser([&] {
    std::this_thread::sleep_for(200ms);
    locks.unlock_exclusive(1, kTx1);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool got_exclusive = locks.lock_exclusive(1, kTx2, 0ns);
  const bool got_shared = locks.lock_shared(1, kTx2, 0ns);
  const auto took = std::chrono::steady_clock::now() - t0;
  releaser.join();
  EXPECT_FALSE(got_exclusive);
  EXPECT_FALSE(got_shared);
  EXPECT_LT(took, 200ms);
}

TEST(LockTableTest, FailedTrySharedQueuesNoReader) {
  // A blocked lock_shared holds later writers back until it is served; a
  // failed try must not, or the next writer would wait for a phantom.
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  EXPECT_FALSE(locks.lock_shared(1, kTx2, 0ns));
  locks.unlock_exclusive(1, kTx1);
  EXPECT_TRUE(locks.lock_exclusive(1, kTx2, 0ns));
  locks.unlock_exclusive(1, kTx2);
}

TEST(LockTableTest, TryExclusiveFailsWhileAReaderIsQueued) {
  // As with a waiting call: a reader queued behind the holder gets the key
  // at its release, before any fresh writer.
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(1, kTx1, 1ms));
  std::atomic<bool> waiting{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    waiting = true;
    ASSERT_TRUE(locks.lock_shared(1, kTx2, 10s));
    while (!done) std::this_thread::yield();
    locks.unlock_shared(1, kTx2);
  });
  while (!waiting) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the reader block on the key
  locks.unlock_exclusive(1, kTx1);
  // The reader is either still queued or holds the key shared.
  EXPECT_FALSE(locks.lock_exclusive(1, kTx3, 0ns));
  done = true;
  reader.join();
  EXPECT_TRUE(locks.lock_exclusive(1, kTx3, 0ns));
  locks.unlock_exclusive(1, kTx3);
}

TEST(LockTableTest, TryMultiKeyAllOrNothing) {
  LockTable locks;
  ASSERT_TRUE(locks.lock_exclusive(2, kTx1, 1ms));
  std::vector<Key> keys{1, 2, 3};
  EXPECT_FALSE(locks.lock_all_exclusive(keys, kTx2, 0ns));
  // Key 1 must have been rolled back, and key 3 never taken.
  EXPECT_TRUE(locks.lock_exclusive(1, kTx1, 0ns));
  EXPECT_TRUE(locks.lock_exclusive(3, kTx1, 0ns));
  locks.unlock_all_exclusive(keys, kTx1);
  EXPECT_TRUE(locks.lock_all_exclusive(keys, kTx2, 0ns));
  locks.unlock_all_exclusive(keys, kTx2);
}

TEST(LockTableTest, StressMutualExclusion) {
  LockTable locks;
  std::atomic<int> in_critical{0};
  std::atomic<int> acquired{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const TxId me(static_cast<NodeId>(t), 0, 1);
      for (int i = 0; i < 200; ++i) {
        if (!locks.lock_exclusive(7, me, 50ms)) continue;
        if (in_critical.fetch_add(1) != 0) violation = true;
        in_critical.fetch_sub(1);
        acquired.fetch_add(1);
        locks.unlock_exclusive(7, me);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(acquired.load(), 800);
}

TEST(LockTableTest, StressSharedExclusiveInvariant) {
  LockTable locks;
  std::atomic<int> readers{0};
  std::atomic<int> writers{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    const bool writer = t < 2;
    threads.emplace_back([&, t, writer] {
      const TxId me(static_cast<NodeId>(t), 0, 1);
      for (int i = 0; i < 150; ++i) {
        if (writer) {
          if (!locks.lock_exclusive(9, me, 50ms)) continue;
          if (writers.fetch_add(1) != 0 || readers.load() != 0) {
            violation = true;
          }
          writers.fetch_sub(1);
          locks.unlock_exclusive(9, me);
        } else {
          if (!locks.lock_shared(9, me, 50ms)) continue;
          readers.fetch_add(1);
          if (writers.load() != 0) violation = true;
          readers.fetch_sub(1);
          locks.unlock_shared(9, me);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace fwkv::store
