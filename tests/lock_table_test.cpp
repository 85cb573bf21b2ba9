#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "store/lock_table.hpp"

namespace fwkv::store {
namespace {

using namespace std::chrono_literals;
using Clock = LockTable::Clock;
using Mode = LockTable::Mode;

const TxId kTx1(1, 0, 1);
const TxId kTx2(2, 0, 1);
const TxId kTx3(3, 0, 1);
const TxId kTx4(4, 0, 1);
constexpr Mode kEx = Mode::kExclusive;
constexpr Mode kSh = Mode::kShared;

/// The outcome of one parked request, settled by its continuation.
struct Outcome {
  std::promise<bool> settled;
  std::future<bool> result = settled.get_future();
  LockTable::Resume resume() {
    return [this](bool granted) { settled.set_value(granted); };
  }
  bool ready() { return result.wait_for(0s) == std::future_status::ready; }
};

const Clock::time_point kFar = Clock::now() + std::chrono::hours(1);

TEST(LockTableTest, ExclusiveBasics) {
  LockTable locks;
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.held_exclusive(1, kTx1));
  EXPECT_FALSE(locks.held_exclusive(1, kTx2));
  EXPECT_EQ(locks.size(), 1u);
  locks.unlock(1, kTx1, kEx);
  EXPECT_FALSE(locks.held_exclusive(1, kTx1));
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, ExclusiveExcludesOtherOwners) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx1, kEx);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, ExclusiveReacquireByOwnerIsIdempotent) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, SharedAllowsMultipleReaders) {
  LockTable locks;
  EXPECT_TRUE(locks.lock(1, kTx1, kSh));
  EXPECT_TRUE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx1, kSh);
  locks.unlock(1, kTx2, kSh);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, SharedBlocksExclusive) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kSh));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx1, kSh);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, ExclusiveBlocksShared) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx1, kEx);
  EXPECT_TRUE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx2, kSh);
}

TEST(LockTableTest, DifferentKeysAreIndependent) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(2, kTx2, kEx));
  locks.unlock(1, kTx1, kEx);
  locks.unlock(2, kTx2, kEx);
}

TEST(LockTableTest, TimedWaitSucceedsWhenReleased) {
  // A parked writer is granted by the release, and its continuation runs
  // on the releasing thread.
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  std::thread::id ran_on;
  Outcome out;
  const auto parked_at = Clock::now();
  locks.park(1, kTx2, kEx, parked_at + 500ms, [&](bool granted) {
    ran_on = std::this_thread::get_id();
    out.settled.set_value(granted);
  });
  EXPECT_EQ(locks.expire(parked_at + 499ms), 0u);
  EXPECT_FALSE(out.ready());
  std::thread releaser([&] { locks.unlock(1, kTx1, kEx); });
  const std::thread::id releaser_id = releaser.get_id();
  EXPECT_TRUE(out.result.get());
  releaser.join();
  EXPECT_EQ(ran_on, releaser_id);
  EXPECT_TRUE(locks.held_exclusive(1, kTx2));
  locks.unlock(1, kTx2, kEx);
  EXPECT_EQ(locks.parked(), 0u);
}

TEST(LockTableTest, WaitingReaderGetsInAtTheNextRelease) {
  // A writer that releases and at once re-locks the key must not starve a
  // reader parked behind it: the reader gets the key at the first release.
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  int releases = 0;
  int acquired_after = -1;
  locks.park(1, kTx2, kSh, kFar, [&](bool granted) {
    ASSERT_TRUE(granted);
    acquired_after = releases;
    locks.unlock(1, kTx2, kSh);
  });
  for (int i = 0; i < 10000 && acquired_after < 0; ++i) {
    ++releases;
    locks.unlock(1, kTx1, kEx);
    ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  }
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(acquired_after, 1);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, TimedOutReaderNoLongerHoldsBackWriters) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome reader;
  const auto deadline = Clock::now() + 2ms;
  locks.park(1, kTx2, kSh, deadline, reader.resume());
  EXPECT_EQ(locks.expire(deadline), 1u);
  ASSERT_TRUE(reader.ready());
  EXPECT_FALSE(reader.result.get()) << "the reader was granted";
  EXPECT_EQ(locks.parked(), 0u);
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, MultiKeyAllOrNothing) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(2, kTx1, kEx));

  const LockTable::Keys keys{{1, 2, 3}, {}};
  Outcome first;
  locks.park_all(keys, kTx2, 2ms, first.resume());
  EXPECT_FALSE(first.ready());
  // The wait on key 2 ends at most 2 ms after this point.
  EXPECT_EQ(locks.expire(Clock::now() + 2ms), 1u);
  ASSERT_TRUE(first.ready());
  EXPECT_FALSE(first.result.get()) << "key 2 was granted";
  // Key 1 must have been released, and key 3 never taken.
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(3, kTx1, kEx));
  locks.unlock_all(keys, kTx1);
  EXPECT_EQ(locks.size(), 0u);

  Outcome second;
  locks.park_all(keys, kTx2, 2ms, second.resume());
  ASSERT_TRUE(second.ready()) << "nothing had to park";
  EXPECT_TRUE(second.result.get());
  for (Key k : keys.exclusive) EXPECT_TRUE(locks.held_exclusive(k, kTx2));
  locks.unlock_all(keys, kTx2);
  EXPECT_EQ(locks.parked(), 0u);
}

// A lock call grants now or refuses, and a refusal changes nothing until
// the request parks.

TEST(LockTableTest, TryAcquiresFailWhereTheBlockingCallsWouldWait) {
  LockTable locks;
  // Held exclusive: only the owner's re-acquisition succeeds.
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kSh));
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  locks.unlock(1, kTx1, kEx);
  // Held shared: readers share, writers are kept out.
  ASSERT_TRUE(locks.lock(1, kTx1, kSh));
  EXPECT_TRUE(locks.lock(1, kTx2, kSh));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx1, kSh);
  locks.unlock(1, kTx2, kSh);
  // Free again: nothing was left behind.
  EXPECT_EQ(locks.size(), 0u);
  EXPECT_EQ(locks.parked(), 0u);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, TryAcquiresNeverWait) {
  // The key is released 200 ms after the calls start. A call that waited
  // any time at all would see that release and succeed.
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  std::thread releaser([&] {
    std::this_thread::sleep_for(200ms);
    locks.unlock(1, kTx1, kEx);
  });
  const auto t0 = Clock::now();
  const bool got_exclusive = locks.lock(1, kTx2, kEx);
  const bool got_shared = locks.lock(1, kTx2, kSh);
  const auto took = Clock::now() - t0;
  releaser.join();
  EXPECT_FALSE(got_exclusive);
  EXPECT_FALSE(got_shared);
  EXPECT_LT(took, 200ms);
}

TEST(LockTableTest, FailedTrySharedQueuesNoReader) {
  // A parked reader holds later writers back until it is served; a refused
  // call must not, or the next writer would wait for a phantom.
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kSh));
  EXPECT_EQ(locks.parked(), 0u);
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, TryExclusiveFailsWhileAReaderIsQueued) {
  // A reader parked behind the holder gets the key at its release, before
  // any fresh writer.
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome reader;
  locks.park(1, kTx2, kSh, kFar, reader.resume());
  locks.unlock(1, kTx1, kEx);
  ASSERT_TRUE(reader.ready());
  EXPECT_TRUE(reader.result.get());
  EXPECT_FALSE(locks.lock(1, kTx3, kEx));
  locks.unlock(1, kTx2, kSh);
  EXPECT_TRUE(locks.lock(1, kTx3, kEx));
  locks.unlock(1, kTx3, kEx);
}

TEST(LockTableTest, TryMultiKeyAllOrNothing) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(2, kTx1, kEx));
  const LockTable::Keys keys{{1, 2, 3}, {}};
  EXPECT_FALSE(locks.lock_all(keys, kTx2));
  // Key 1 must have been rolled back, and key 3 never taken.
  EXPECT_EQ(locks.size(), 1u);
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(3, kTx1, kEx));
  locks.unlock_all(keys, kTx1);
  EXPECT_TRUE(locks.lock_all(keys, kTx2));
  locks.unlock_all(keys, kTx2);
  // A shared key that is held exclusive rolls back the exclusive ones.
  ASSERT_TRUE(locks.lock(9, kTx1, kEx));
  EXPECT_FALSE(locks.lock_all(LockTable::Keys{{1, 2}, {9}}, kTx2));
  EXPECT_EQ(locks.size(), 1u);
  locks.unlock(9, kTx1, kEx);
}

TEST(LockTableTest, ReleaseGrantsParkedReadersBeforeTheFirstWriter) {
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome writer, early_reader, late_reader;
  locks.park(1, kTx2, kEx, kFar, writer.resume());
  locks.park(1, kTx3, kSh, kFar, early_reader.resume());
  locks.park(1, kTx4, kSh, kFar, late_reader.resume());
  EXPECT_EQ(locks.parked(), 3u);
  locks.unlock(1, kTx1, kEx);
  // Both readers are in, though the writer parked first.
  EXPECT_TRUE(early_reader.ready());
  EXPECT_TRUE(late_reader.ready());
  EXPECT_FALSE(writer.ready());
  locks.unlock(1, kTx3, kSh);
  EXPECT_FALSE(writer.ready());
  locks.unlock(1, kTx4, kSh);
  ASSERT_TRUE(writer.ready());
  EXPECT_TRUE(writer.result.get());
  EXPECT_TRUE(locks.held_exclusive(1, kTx2));
  locks.unlock(1, kTx2, kEx);
  EXPECT_EQ(locks.size(), 0u);
  EXPECT_EQ(locks.parked(), 0u);
}

TEST(LockTableTest, ChainOfWaitersDrainsAfterOneReleaseOnOneThread) {
  // Each of 100,000 parked writers releases the key in its continuation,
  // which grants the next. Run as a recursion, the chain would overflow
  // the stack; run in a loop, it drains inside the one release call.
  constexpr int kWaiters = 100000;
  LockTable locks;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  int ran = 0;
  bool elsewhere = false;
  const auto me = std::this_thread::get_id();
  for (int i = 0; i < kWaiters; ++i) {
    const TxId owner(1, 1, static_cast<SeqNo>(i + 1));
    locks.park(1, owner, kEx, kFar, [&, owner](bool granted) {
      if (!granted || std::this_thread::get_id() != me) elsewhere = true;
      ++ran;
      locks.unlock(1, owner, kEx);
    });
  }
  EXPECT_EQ(locks.parked(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(ran, 0);
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(ran, kWaiters);
  EXPECT_FALSE(elsewhere);
  EXPECT_EQ(locks.parked(), 0u);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, ContinuationThatRelocksItsReleasersKeyDoesNotDeadlock) {
  // A node releases a Decide's locks under its site mutex, inside its
  // handler's Scope. The continuation the release grants takes that mutex
  // and re-locks the key: it must run after the handler, not inside the
  // release (under the shard mutex or the site mutex).
  LockTable locks;
  std::mutex site_mu;
  std::atomic<bool> releasing{false};
  bool inside_release = false;
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome relocked;
  locks.park(1, kTx2, kEx, kFar, [&](bool granted) {
    inside_release = releasing.load();
    std::lock_guard<std::mutex> lock(site_mu);
    locks.unlock(1, kTx2, kEx);
    relocked.settled.set_value(granted && locks.lock(1, kTx1, kEx));
  });
  std::thread handler([&] {
    LockTable::Scope scope;
    std::lock_guard<std::mutex> lock(site_mu);
    releasing = true;
    locks.unlock(1, kTx1, kEx);
    releasing = false;
  });
  if (relocked.result.wait_for(10s) != std::future_status::ready) {
    ADD_FAILURE() << "the continuation deadlocked";
    std::abort();  // the handler thread cannot be joined
  }
  handler.join();
  EXPECT_TRUE(relocked.result.get());
  EXPECT_FALSE(inside_release);
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, ExpireSettlesOnlyRequestsPastTheirDeadline) {
  // A read parked for 5 s survives a sweep 1 ms later and is granted by
  // the next release; a sweep then finds nothing to time out.
  LockTable locks;
  const auto t = Clock::now();
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome reader;
  locks.park(1, kTx2, kSh, t + 5s, reader.resume());
  EXPECT_EQ(locks.expire(t + 1ms), 0u);
  EXPECT_FALSE(reader.ready());
  locks.unlock(1, kTx1, kEx);
  ASSERT_TRUE(reader.ready());
  EXPECT_TRUE(reader.result.get());
  EXPECT_EQ(locks.expire(t + 10s), 0u);
  locks.unlock(1, kTx2, kSh);

  // A prepare parked until t times out at the first sweep at or after t,
  // exactly once.
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  int runs = 0;
  bool granted = true;
  locks.park(1, kTx2, kEx, t, [&](bool g) {
    ++runs;
    granted = g;
  });
  EXPECT_EQ(locks.expire(t - 1ns), 0u);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(locks.expire(t), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(granted);
  EXPECT_EQ(locks.expire(t + 1s), 0u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(locks.parked(), 0u);
  // The timed-out writer left nothing behind: the release frees the key.
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
}

/// Takes `key` for `me`, parking if it is busy. The continuation runs on
/// the releasing thread; this thread waits for it.
bool lock_waiting(LockTable& locks, Key key, TxId me, Mode mode) {
  if (locks.lock(key, me, mode)) return true;
  Outcome out;
  locks.park(key, me, mode, kFar, out.resume());
  return out.result.get();
}

TEST(LockTableTest, StressMutualExclusion) {
  LockTable locks;
  std::atomic<int> in_critical{0};
  std::atomic<int> acquired{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      const TxId me(static_cast<NodeId>(i), 0, 1);
      for (int n = 0; n < 200; ++n) {
        if (!lock_waiting(locks, 7, me, kEx)) continue;
        if (in_critical.fetch_add(1) != 0) violation = true;
        in_critical.fetch_sub(1);
        acquired.fetch_add(1);
        locks.unlock(7, me, kEx);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(acquired.load(), 800);
  EXPECT_EQ(locks.parked(), 0u);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, StressSharedExclusiveInvariant) {
  LockTable locks;
  std::atomic<int> readers{0};
  std::atomic<int> writers{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    const bool writer = i < 2;
    threads.emplace_back([&, i, writer] {
      const TxId me(static_cast<NodeId>(i), 0, 1);
      for (int n = 0; n < 150; ++n) {
        if (writer) {
          if (!lock_waiting(locks, 9, me, kEx)) continue;
          if (writers.fetch_add(1) != 0 || readers.load() != 0) {
            violation = true;
          }
          writers.fetch_sub(1);
          locks.unlock(9, me, kEx);
        } else {
          if (!lock_waiting(locks, 9, me, kSh)) continue;
          readers.fetch_add(1);
          if (writers.load() != 0) violation = true;
          readers.fetch_sub(1);
          locks.unlock(9, me, kSh);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(locks.parked(), 0u);
  EXPECT_EQ(locks.size(), 0u);
}

}  // namespace
}  // namespace fwkv::store
