// Per-key transactional locks with owner tracking (the paper's acquisition
// timeout is 1 ms, ~50 message flight times on its testbed). Exclusive
// locks cover a prepare's written keys (Alg. 5 line 3), shared ones the PSI
// read handlers (Alg. 3 lines 3/12) and 2PC-baseline read validation.
// Multi-key requests lock in sorted key order, exclusive keys first: with
// the timeouts, the table is deadlock-free.
//
// No call blocks. A lock call grants the key now or returns false, changing
// nothing; a refused request may then park with a continuation. A release
// grants every parked reader first, else the first parked writer, and a
// fresh exclusive call is refused while anyone waits, so no writer starves
// a parked reader. A continuation never runs inside the call that settles
// it (a node releases a Decide's locks under its site mutex, which a read
// takes): each thread runs what it settled, in a loop, when its outermost
// Scope ends, and every lock call is a Scope. The table keeps no clock: a
// parked request times out at the first expire(now) at or after its
// deadline, which its node calls on every cluster tick. The shard mutex
// settles the grant-versus-timeout race; it is a fwkv::Mutex, whose
// contended acquisitions go to the counter the table is given.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/mutex.hpp"

namespace fwkv::store {

class LockTable {
 public:
  using Clock = std::chrono::steady_clock;
  /// A parked request's continuation: granted, or timed out.
  using Resume = std::function<void(bool granted)>;
  enum class Mode : std::uint8_t { kShared, kExclusive };

  /// The keys of one multi-key request, each list sorted.
  struct Keys {
    std::vector<Key> exclusive;
    std::vector<Key> shared;

    std::size_t size() const { return exclusive.size() + shared.size(); }
    /// The i-th key in locking order, exclusive keys first.
    std::pair<Key, Mode> at(std::size_t i) const {
      if (i < exclusive.size()) return {exclusive[i], Mode::kExclusive};
      return {shared[i - exclusive.size()], Mode::kShared};
    }
  };

  /// A handler's extent: what it settles runs when the outermost ends.
  struct Scope {
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// `contended` counts the shard acquisitions that found the shard busy.
  explicit LockTable(Counter* contended = nullptr, std::size_t shards = 64);

  /// Exclusive: granted if the key is free and nobody waits for it, or if
  /// `owner` holds it already (idempotent). Shared: granted unless an
  /// exclusive holder is present.
  bool lock(Key key, TxId owner, Mode mode);
  /// Grants every key of `keys`, or none of them.
  bool lock_all(const Keys& keys, TxId owner);

  /// Parks a request lock() refused: `resume` runs once, when the key is
  /// granted to `owner` (at once if it is free by now) or at the first
  /// expire() at or after `deadline`.
  void park(Key key, TxId owner, Mode mode, Clock::time_point deadline,
            Resume resume);
  /// Takes the keys from `next` on (those before are held) in order,
  /// parking at most `per_key` on each busy one: `then(true)` once all are
  /// held (at once if none was busy), or on a timeout `then(false)` once the
  /// keys taken are released.
  void park_all(Keys keys, TxId owner, std::chrono::nanoseconds per_key,
                Resume then, std::size_t next = 0);

  /// Times out every parked request whose deadline is at or before `now`
  /// and runs their continuations; returns how many it settled. Takes only
  /// the mutexes of shards that hold a parked request.
  std::size_t expire(Clock::time_point now);

  void unlock(Key key, TxId owner, Mode mode);
  /// Releases the first `n` keys of `keys`, all of them by default.
  void unlock_all(const Keys& keys, TxId owner, std::size_t n = SIZE_MAX);

  // Test and quiescence helpers.
  bool held_exclusive(Key key, TxId owner) const;
  /// Keys with a holder or a parked request.
  std::size_t size() const;
  /// Parked requests whose continuation has not yet run, granted or not.
  std::size_t parked() const { return parked_.load(); }

 private:
  struct Waiter {
    TxId owner;
    Mode mode;
    Clock::time_point deadline;
    Resume resume;
  };
  struct LockState {
    TxId exclusive_owner = kInvalidTxId;
    std::uint32_t shared_count = 0;
    std::uint32_t readers_parked = 0;  // the readers among `waiters`
    /// In arrival order. Readers park only behind an exclusive holder.
    std::list<Waiter> waiters;

    bool idle() const {
      return !exclusive_owner.valid() && shared_count == 0 && waiters.empty();
    }
  };
  struct Shard {
    explicit Shard(Counter* contended) : mu(contended) {}
    Mutex mu;
    std::unordered_map<Key, LockState> locks;
    /// Parked requests in `locks`; written under `mu`, read by expire()
    /// without it.
    std::atomic<std::uint32_t> waiting{0};
  };

  Shard& shard_for(Key key) const;
  static bool grant(LockState& st, TxId owner, Mode mode);
  /// Settles the requests a release lets in.
  void grant_waiters_locked(Shard& s, LockState& st);
  /// Queues `w`'s continuation on this thread.
  void settle(Waiter& w, bool granted);
  std::vector<std::unique_ptr<Shard>> shards_;
  /// On a cache line of its own: every tick reads it from the timer thread,
  /// and the members that follow a table in its node are written by every
  /// prepare and Decide.
  alignas(64) std::atomic<std::size_t> parked_{0};
};

}  // namespace fwkv::store
