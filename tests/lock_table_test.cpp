#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/delay_queue.hpp"
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

/// A lock table whose parked requests time out on a real timer, armed at
/// most 1 ms ahead as in a node. The timer is declared after the table, so
/// it stops before the table goes.
struct Timed {
  Timed()
      : locks(
            [this](std::chrono::nanoseconds delay, std::function<void()> fn) {
              timer.run_after(delay, std::move(fn));
            },
            1ms) {}
  LockTable locks;
  net::DelayQueue timer;
};

/// Timer entries that run only when the test fires them.
struct ManualTimer {
  LockTable::Schedule schedule() {
    return [this](std::chrono::nanoseconds delay, std::function<void()> fn) {
      entries.emplace_back(Clock::now() + delay, std::move(fn));
    };
  }
  /// Runs the oldest entry.
  void fire() {
    auto entry = std::move(entries.front());
    entries.erase(entries.begin());
    entry.second();
  }
  std::vector<std::pair<Clock::time_point, std::function<void()>>> entries;
};

/// A schedule for tables whose requests never time out in the test.
LockTable::Schedule never() {
  return [](std::chrono::nanoseconds, std::function<void()>) {};
}

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

/// True once every continuation of `locks` has run. One settled by a
/// timeout finishes on the timer thread, after its waiter has seen it.
bool drained(const LockTable& locks) {
  for (int i = 0; i < 1000 && locks.parked() != 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  return locks.parked() == 0;
}

TEST(LockTableTest, ExclusiveBasics) {
  LockTable locks(never(), 1ms);
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.held_exclusive(1, kTx1));
  EXPECT_FALSE(locks.held_exclusive(1, kTx2));
  EXPECT_EQ(locks.size(), 1u);
  locks.unlock(1, kTx1, kEx);
  EXPECT_FALSE(locks.held_exclusive(1, kTx1));
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, ExclusiveExcludesOtherOwners) {
  LockTable locks(never(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx1, kEx);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, ExclusiveReacquireByOwnerIsIdempotent) {
  LockTable locks(never(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(1, kTx1, kEx));
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, SharedAllowsMultipleReaders) {
  LockTable locks(never(), 1ms);
  EXPECT_TRUE(locks.lock(1, kTx1, kSh));
  EXPECT_TRUE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx1, kSh);
  locks.unlock(1, kTx2, kSh);
  EXPECT_EQ(locks.size(), 0u);
}

TEST(LockTableTest, SharedBlocksExclusive) {
  LockTable locks(never(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kSh));
  EXPECT_FALSE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx1, kSh);
  EXPECT_TRUE(locks.lock(1, kTx2, kEx));
  locks.unlock(1, kTx2, kEx);
}

TEST(LockTableTest, ExclusiveBlocksShared) {
  LockTable locks(never(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_FALSE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx1, kEx);
  EXPECT_TRUE(locks.lock(1, kTx2, kSh));
  locks.unlock(1, kTx2, kSh);
}

TEST(LockTableTest, DifferentKeysAreIndependent) {
  LockTable locks(never(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(locks.lock(2, kTx2, kEx));
  locks.unlock(1, kTx1, kEx);
  locks.unlock(2, kTx2, kEx);
}

TEST(LockTableTest, TimedWaitSucceedsWhenReleased) {
  // A parked writer is granted by the release, and its continuation runs
  // on the releasing thread.
  Timed t;
  ASSERT_TRUE(t.locks.lock(1, kTx1, kEx));
  std::thread::id ran_on;
  Outcome out;
  t.locks.park(1, kTx2, kEx, Clock::now() + 500ms,
               [&](bool granted) {
                 ran_on = std::this_thread::get_id();
                 out.settled.set_value(granted);
               });
  EXPECT_FALSE(out.ready());
  std::thread releaser([&] {
    std::this_thread::sleep_for(10ms);
    t.locks.unlock(1, kTx1, kEx);
  });
  const std::thread::id releaser_id = releaser.get_id();
  EXPECT_TRUE(out.result.get());
  releaser.join();
  EXPECT_EQ(ran_on, releaser_id);
  EXPECT_TRUE(t.locks.held_exclusive(1, kTx2));
  t.locks.unlock(1, kTx2, kEx);
  EXPECT_EQ(t.locks.parked(), 0u);
}

TEST(LockTableTest, WaitingReaderGetsInAtTheNextRelease) {
  // A writer that releases and at once re-locks the key must not starve a
  // reader parked behind it: the reader gets the key at the first release.
  LockTable locks(never(), 1ms);
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
  Timed t;
  ASSERT_TRUE(t.locks.lock(1, kTx1, kEx));
  Outcome reader;
  t.locks.park(1, kTx2, kSh, Clock::now() + 2ms, reader.resume());
  EXPECT_FALSE(reader.result.get()) << "the reader was granted";
  t.locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(t.locks.size(), 0u);
  EXPECT_TRUE(t.locks.lock(1, kTx2, kEx));
  t.locks.unlock(1, kTx2, kEx);
  EXPECT_TRUE(drained(t.locks));
}

TEST(LockTableTest, MultiKeyAllOrNothing) {
  Timed t;
  ASSERT_TRUE(t.locks.lock(2, kTx1, kEx));

  const LockTable::Keys keys{{1, 2, 3}, {}};
  Outcome first;
  t.locks.park_all(keys, kTx2, 2ms, first.resume());
  EXPECT_FALSE(first.result.get()) << "key 2 was granted";
  // Key 1 must have been released, and key 3 never taken.
  EXPECT_TRUE(t.locks.lock(1, kTx1, kEx));
  EXPECT_TRUE(t.locks.lock(3, kTx1, kEx));
  t.locks.unlock_all(keys, kTx1);
  EXPECT_EQ(t.locks.size(), 0u);

  Outcome second;
  t.locks.park_all(keys, kTx2, 2ms, second.resume());
  ASSERT_TRUE(second.ready()) << "nothing had to park";
  EXPECT_TRUE(second.result.get());
  for (Key k : keys.exclusive) EXPECT_TRUE(t.locks.held_exclusive(k, kTx2));
  t.locks.unlock_all(keys, kTx2);
  EXPECT_TRUE(drained(t.locks));
}

// A lock call grants now or refuses, and a refusal changes nothing until
// the request parks.

TEST(LockTableTest, TryAcquiresFailWhereTheBlockingCallsWouldWait) {
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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
  LockTable locks(never(), 1ms);
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

TEST(LockTableTest, ParkedRequestHoldsOneTimerEntryOfAtMostOneTick) {
  // A read parked for 5 s keeps exactly one timer entry, due at most one
  // tick ahead: an early entry re-arms, and an entry that finds the
  // request granted ends without a successor.
  ManualTimer timer;
  LockTable locks(timer.schedule(), 1ms);
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome reader;
  const auto parked_at = Clock::now();
  locks.park(1, kTx2, kSh, parked_at + 5s, reader.resume());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(timer.entries.size(), 1u);
    EXPECT_LE(timer.entries[0].first, Clock::now() + 1ms);
    timer.fire();  // before the deadline: re-arms
    EXPECT_FALSE(reader.ready());
  }
  ASSERT_EQ(timer.entries.size(), 1u);
  locks.unlock(1, kTx1, kEx);
  ASSERT_TRUE(reader.ready());
  EXPECT_TRUE(reader.result.get());
  timer.fire();  // finds the read granted
  EXPECT_TRUE(timer.entries.empty());
  locks.unlock(1, kTx2, kSh);

  // A request past its deadline times out at its entry, re-arming nothing.
  ASSERT_TRUE(locks.lock(1, kTx1, kEx));
  Outcome late;
  locks.park(1, kTx2, kEx, Clock::now(), late.resume());
  ASSERT_EQ(timer.entries.size(), 1u);
  timer.fire();
  ASSERT_TRUE(late.ready());
  EXPECT_FALSE(late.result.get());
  EXPECT_TRUE(timer.entries.empty());
  EXPECT_EQ(locks.parked(), 0u);
  locks.unlock(1, kTx1, kEx);
  EXPECT_EQ(locks.size(), 0u);
}

/// Takes `key` for `me`, parking for at most 50 ms if it is busy. The
/// continuation runs on the releasing thread (or the timer); this thread
/// waits for it.
bool lock_waiting(Timed& t, Key key, TxId me, Mode mode) {
  if (t.locks.lock(key, me, mode)) return true;
  Outcome out;
  t.locks.park(key, me, mode, Clock::now() + 50ms, out.resume());
  return out.result.get();
}

TEST(LockTableTest, StressMutualExclusion) {
  Timed t;
  std::atomic<int> in_critical{0};
  std::atomic<int> acquired{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      const TxId me(static_cast<NodeId>(i), 0, 1);
      for (int n = 0; n < 200; ++n) {
        if (!lock_waiting(t, 7, me, kEx)) continue;
        if (in_critical.fetch_add(1) != 0) violation = true;
        in_critical.fetch_sub(1);
        acquired.fetch_add(1);
        t.locks.unlock(7, me, kEx);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(acquired.load(), 800);
  EXPECT_TRUE(drained(t.locks));
  EXPECT_EQ(t.locks.size(), 0u);
}

TEST(LockTableTest, StressSharedExclusiveInvariant) {
  Timed t;
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
          if (!lock_waiting(t, 9, me, kEx)) continue;
          if (writers.fetch_add(1) != 0 || readers.load() != 0) {
            violation = true;
          }
          writers.fetch_sub(1);
          t.locks.unlock(9, me, kEx);
        } else {
          if (!lock_waiting(t, 9, me, kSh)) continue;
          readers.fetch_add(1);
          if (writers.load() != 0) violation = true;
          readers.fetch_sub(1);
          t.locks.unlock(9, me, kSh);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_TRUE(drained(t.locks));
  EXPECT_EQ(t.locks.size(), 0u);
}

}  // namespace
}  // namespace fwkv::store
